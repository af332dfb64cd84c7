package webreason_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persist"
)

// degTriple is a distinct well-formed triple per index.
func degTriple(i int) webreason.Triple {
	return webreason.T(
		webreason.NewIRI("http://deg.example.org/s"+string(rune('a'+i%26))+itoa(i)),
		webreason.NewIRI("http://deg.example.org/rel"),
		webreason.NewIRI("http://deg.example.org/o"))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// newFaultedServer opens a durable server over an empty saturation strategy
// whose persistence layer runs through fsys with the given DB options.
func newFaultedServer(t *testing.T, dir string, fsys persist.FS, opts persist.Options, srvOpts webreason.ServerOptions) (*webreason.Server, *webreason.DB) {
	t.Helper()
	opts.FS = fsys
	db, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	strat := core.NewSaturation(core.NewKB())
	srvOpts.DB = db
	srv := webreason.NewServer(strat, srvOpts)
	return srv, db
}

// TestDegradedModeOnSyncFailure drives a durable server into degraded
// read-only mode with a persistently failing WAL fsync and pins the
// contract: the failing write and everything after it get typed
// DegradedErrors, reads keep serving the last applied snapshot, and Health
// reports the mode with its cause.
func TestDegradedModeOnSyncFailure(t *testing.T) {
	// WAL sync #1 is the header during Open; everything after fails — a disk
	// that went bad right after boot.
	fsys := faultfs.New(faultfs.NewSchedule().FailOpAlways(faultfs.OpSync, "wal-", 2, syscall.EIO))
	srv, db := newFaultedServer(t, t.TempDir(), fsys,
		persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1},
		webreason.ServerOptions{FlushEvery: 2})
	defer db.Close()
	defer srv.Close()

	// A healthy write first, so the served snapshot has content to keep
	// serving after degradation. It must be applied before the fault-tripping
	// write joins the same batch, hence the Flush.
	//
	// Under SyncAlways AppendAck syncs inline, so even this first write trips
	// the fault — which is exactly the scenario: nothing after the failure is
	// applied.
	err := srv.InsertDurable(degTriple(0))
	if err == nil {
		t.Fatal("durable insert over a failing WAL fsync should error")
	}
	if !errors.Is(err, webreason.ErrDegraded) {
		t.Fatalf("durable insert error should match ErrDegraded, got %v", err)
	}
	if !errors.Is(err, faultfs.ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("degraded error should carry the injected cause, got %v", err)
	}

	// Writes now fail fast with the typed error — even plain async inserts.
	if err := srv.Insert(degTriple(1)); !errors.Is(err, webreason.ErrDegraded) {
		t.Fatalf("post-degradation Insert should fail fast with ErrDegraded, got %v", err)
	}
	var de *webreason.DegradedError
	if err := srv.Delete(degTriple(1)); !errors.As(err, &de) || de.Cause == nil {
		t.Fatalf("post-degradation Delete should be a DegradedError with a cause, got %v", err)
	}

	// Reads keep serving (the last applied snapshot; here the empty state,
	// since the very first write was refused).
	q := webreason.MustParseQuery(`ASK { <http://deg.example.org/sa0> <http://deg.example.org/rel> <http://deg.example.org/o> }`)
	ok, qerr := srv.Ask(q)
	if qerr != nil {
		t.Fatalf("read on a degraded server should serve, got %v", qerr)
	}
	if ok {
		t.Fatal("refused write must not be visible")
	}

	h := srv.Health()
	if !h.Degraded || h.DegradedCause == nil {
		t.Fatalf("Health should report degraded with a cause, got %+v", h)
	}
	if !errors.Is(h.DegradedCause, faultfs.ErrInjected) {
		t.Fatalf("Health cause should be the injected fault, got %v", h.DegradedCause)
	}

	// Close surfaces the sticky failure, typed.
	if err := srv.Close(); !errors.Is(err, webreason.ErrDegraded) {
		t.Fatalf("Close on a degraded server should return ErrDegraded, got %v", err)
	}
}

// TestSessionReadAfterDurabilityError is the promptness contract: once a
// session's own accepted write has been refused by the degraded server, the
// session's reads return a typed error quickly — they never block forever
// waiting for an application that will never happen — while sessions
// untouched by the divergence keep reading.
func TestSessionReadAfterDurabilityError(t *testing.T) {
	fsys := faultfs.New(faultfs.NewSchedule().FailOpAlways(faultfs.OpSync, "wal-", 2, syscall.EIO))
	srv, db := newFaultedServer(t, t.TempDir(), fsys,
		persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1},
		webreason.ServerOptions{FlushEvery: 1})
	defer db.Close()
	defer srv.Close()

	sess := srv.Session()
	if err := sess.InsertDurable(degTriple(0)); !errors.Is(err, webreason.ErrDegraded) {
		t.Fatalf("session durable insert should degrade, got %v", err)
	}

	// The read must come back promptly with the typed error, not hang on the
	// never-to-be-applied watermark. Run it with a failsafe timeout so a
	// regression is a clean failure, not a suite hang.
	q := webreason.MustParseQuery(`ASK { ?s ?p ?o }`)
	type res struct {
		err  error
		took time.Duration
	}
	ch := make(chan res, 1)
	go func() {
		start := time.Now()
		_, err := sess.Ask(q)
		ch <- res{err, time.Since(start)}
	}()
	select {
	case r := <-ch:
		if !errors.Is(r.err, webreason.ErrDegraded) {
			t.Fatalf("session read after refused write should return ErrDegraded, got %v", r.err)
		}
		if r.took > 2*time.Second {
			t.Fatalf("session read took %v; want prompt typed failure", r.took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session read blocked instead of returning a typed error")
	}

	// A session with no refused write still reads normally.
	if _, err := srv.Session().Ask(q); err != nil {
		t.Fatalf("fresh session read on a degraded server should serve, got %v", err)
	}
}

// TestOverloadedAdmission pins deadline-aware admission control: when the
// mutation queue sits at MaxPending past the caller's deadline, the write is
// bounced with a typed OverloadedError instead of blocking indefinitely.
func TestOverloadedAdmission(t *testing.T) {
	fsys := faultfs.New(nil)
	srv, db := newFaultedServer(t, t.TempDir(), fsys,
		persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1},
		webreason.ServerOptions{FlushEvery: 1, MaxPending: 1})
	defer db.Close()
	defer srv.Close()
	// The writer parks in the first write's WAL fsync, so the queue stays
	// full while the short-deadline write waits for admission.
	hold := faultfs.NewHold()
	fsys.SetSchedule(faultfs.NewSchedule().HoldOn(faultfs.OpSync, "wal-", 1, hold))
	defer hold.Release()

	// First write: the writer takes it and parks in the fsync; only then is
	// the queue empty for the second write, which stays queued behind it.
	if err := srv.Insert(degTriple(0)); err != nil {
		t.Fatal(err)
	}
	<-hold.Held()
	if err := srv.Insert(degTriple(1)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := srv.InsertContext(ctx, degTriple(2))
	if !errors.Is(err, webreason.ErrOverloaded) {
		t.Fatalf("admission past deadline should be ErrOverloaded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overloaded error should carry the context cause, got %v", err)
	}
	var oe *webreason.OverloadedError
	if !errors.As(err, &oe) || oe.Pending < 1 {
		t.Fatalf("OverloadedError should report the observed depth, got %v", err)
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("unexpected message %q", err.Error())
	}

	// Without a deadline the same write admits once the writer catches up.
	hold.Release()
	if err := srv.Insert(degTriple(2)); err != nil {
		t.Fatalf("unbounded write should eventually admit, got %v", err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableContextAbandonsWaitNotWrite pins the documented cancellation
// semantics: expiring the context during the durability wait returns the
// context error, while the write itself stays accepted and becomes visible.
func TestDurableContextAbandonsWaitNotWrite(t *testing.T) {
	fsys := faultfs.New(nil)
	srv, db := newFaultedServer(t, t.TempDir(), fsys,
		persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1},
		webreason.ServerOptions{FlushEvery: 1})
	defer db.Close()
	defer srv.Close()
	// The write's WAL fsync parks until the context has been cancelled.
	hold := faultfs.NewHold()
	fsys.SetSchedule(faultfs.NewSchedule().HoldOn(faultfs.OpSync, "wal-", 1, hold))
	defer hold.Release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-hold.Held()
		cancel()
	}()
	err := srv.InsertDurableContext(ctx, degTriple(0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled durability wait should return the context error, got %v", err)
	}

	// The write was not undone: once the writer drains, it is visible.
	hold.Release()
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	q := webreason.MustParseQuery(`ASK { ?s ?p ?o }`)
	if ok, err := srv.Ask(q); err != nil || !ok {
		t.Fatalf("abandoned-wait write should still be applied (ok=%v err=%v)", ok, err)
	}
}

// TestHealthHealthy sanity-checks the report on a healthy durable server:
// counters advance, no degradation, lag drains to zero after Flush.
func TestHealthHealthy(t *testing.T) {
	srv, db := newFaultedServer(t, t.TempDir(), persist.OS,
		persist.Options{Sync: persist.SyncNever, CheckpointBytes: -1, CheckpointRecords: -1},
		webreason.ServerOptions{FlushEvery: 4})
	defer db.Close()
	defer srv.Close()

	for i := 0; i < 10; i++ {
		if err := srv.Insert(degTriple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	h := srv.Health()
	if h.Degraded || h.DegradedCause != nil || h.Closed {
		t.Fatalf("healthy server misreported: %+v", h)
	}
	if h.Enqueued != 10 || h.Applied != 10 || h.Lag != 0 || h.Pending != 0 {
		t.Fatalf("counters after flush: %+v", h)
	}
	if h.WALGeneration == 0 || h.WALBytes == 0 || h.WALChainBytes < h.WALBytes {
		t.Fatalf("WAL fields should be populated: %+v", h)
	}
	if h.CheckpointFailures != 0 || h.CheckpointRetryPending {
		t.Fatalf("no checkpoint trouble expected: %+v", h)
	}
}

// TestCheckpointRetryBackoff pins that a failed background checkpoint does
// NOT degrade the server; it retries on a capped backoff — driven by the
// writer's idle retry timer, no new mutations needed — and eventually
// completes, clearing the pending state and garbage-collecting the chain.
func TestCheckpointRetryBackoff(t *testing.T) {
	// The first two snapshot-file fsyncs fail; the third attempt succeeds.
	fsys := faultfs.New(faultfs.NewSchedule().
		FailOpOn(faultfs.OpSync, ".snap.tmp", 1, syscall.EIO).
		FailOpOn(faultfs.OpSync, ".snap.tmp", 2, syscall.EIO))
	srv, db := newFaultedServer(t, t.TempDir(), fsys,
		persist.Options{
			Sync: persist.SyncNever, CheckpointRecords: 2, CheckpointBytes: -1,
			CheckpointBackoff: time.Millisecond, CheckpointBackoffMax: 5 * time.Millisecond,
		},
		webreason.ServerOptions{FlushEvery: 1})
	defer db.Close()
	defer srv.Close()

	for i := 0; i < 4; i++ {
		if err := srv.InsertDurable(degTriple(i)); err != nil {
			t.Fatalf("checkpoint failures must not degrade writes: %v", err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		h := srv.Health()
		if h.CheckpointFailures >= 2 && !h.CheckpointRetryPending && !h.LastCheckpoint.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint retry never completed: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := srv.Health(); h.Degraded {
		t.Fatalf("checkpoint failures alone must not degrade the server: %+v", h)
	}
	// The server still accepts writes throughout.
	if err := srv.InsertDurable(degTriple(99)); err != nil {
		t.Fatalf("write after recovered checkpoint: %v", err)
	}
}

// TestWALBoundDegrades pins the disk-protection backstop: when checkpoints
// cannot shrink the chain and the WAL grows past MaxWALBytes, the server
// degrades with an error matching both ErrDegraded and ErrWALBound instead
// of writing toward a full disk.
func TestWALBoundDegrades(t *testing.T) {
	srv, db := newFaultedServer(t, t.TempDir(), persist.OS,
		persist.Options{
			Sync: persist.SyncNever, CheckpointBytes: -1, CheckpointRecords: -1,
			MaxWALBytes: 4096,
		},
		webreason.ServerOptions{FlushEvery: 1})
	defer db.Close()
	defer srv.Close()

	var err error
	for i := 0; i < 10_000; i++ {
		if err = srv.InsertDurable(degTriple(i)); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("writes never hit the 4KB WAL bound")
	}
	if !errors.Is(err, webreason.ErrDegraded) || !errors.Is(err, webreason.ErrWALBound) {
		t.Fatalf("bound hit should match ErrDegraded and ErrWALBound, got %v", err)
	}
	h := srv.Health()
	if !h.Degraded {
		t.Fatalf("Health should report degraded: %+v", h)
	}
	if h.WALChainBytes > 4096+512 {
		t.Fatalf("chain grew past the bound: %d bytes", h.WALChainBytes)
	}
	// Reads still serve.
	if _, err := srv.Ask(webreason.MustParseQuery(`ASK { ?s ?p ?o }`)); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
}

// TestGCRemoveFailuresCountedAndRetried pins the GC contract: failed
// removals of superseded generation files are counted (not silently
// ignored), the files survive, and the next checkpoint's GC pass re-attempts
// and clears them once the disk heals.
func TestGCRemoveFailuresCountedAndRetried(t *testing.T) {
	fsys := faultfs.New(faultfs.NewSchedule().FailOpAlways(faultfs.OpRemove, "", 1, syscall.EIO))
	dir := t.TempDir()
	db, err := persist.Open(dir, persist.Options{Sync: persist.SyncNever, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	strat := core.NewSaturation(core.NewKB())

	appendAndCheckpoint := func() {
		t.Helper()
		if err := db.Append(false, []webreason.Triple{degTriple(int(db.Generation()))}); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(strat.DurableState()); err != nil {
			t.Fatalf("checkpoint (GC failures must not fail it): %v", err)
		}
	}

	appendAndCheckpoint() // rotates; GC of the old generation fails
	st := db.Stats()
	if st.GCRemoveFailures == 0 {
		t.Fatalf("failed removals should be counted, got %+v", st)
	}
	firstFails := st.GCRemoveFailures

	// Disk "healed": the next pass re-attempts the leftovers and wins.
	fsys.Clear()
	appendAndCheckpoint()
	st = db.Stats()
	if st.GCRemoveFailures != firstFails {
		t.Fatalf("healed GC should add no failures: %d -> %d", firstFails, st.GCRemoveFailures)
	}
	// Only the live generation's files (plus LOCK) remain.
	entries, err := persist.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen := db.Generation()
	for _, e := range entries {
		name := e.Name()
		if name == "LOCK" {
			continue
		}
		if !strings.Contains(name, genHex(gen)) {
			t.Fatalf("stale file %s survived the healed GC pass (gen %d)", name, gen)
		}
	}
}

func genHex(gen uint64) string {
	const digits = "0123456789abcdef"
	b := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		b[i] = digits[gen&0xf]
		gen >>= 4
	}
	return string(b)
}

// TestServerConcurrentDegradation hammers a degrading server from many
// goroutines: every outcome must be nil or a typed error, and the server
// must neither hang nor panic. (The chaos harness broadens this; this test
// pins the specific enqueue/degrade race.)
func TestServerConcurrentDegradation(t *testing.T) {
	fsys := faultfs.New(faultfs.NewSchedule().FailOpAlways(faultfs.OpSync, "wal-", 4, syscall.EIO))
	srv, db := newFaultedServer(t, t.TempDir(), fsys,
		persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1},
		webreason.ServerOptions{FlushEvery: 2, MaxPending: 8})
	defer db.Close()
	defer srv.Close()

	q := webreason.MustParseQuery(`ASK { ?s ?p ?o }`)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := srv.Session()
			for i := 0; i < 40; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				var err error
				if i%2 == 0 {
					err = sess.InsertDurableContext(ctx, degTriple(g*1000+i))
				} else {
					err = sess.DeleteContext(ctx, degTriple(g*1000+i-1))
				}
				cancel()
				if err != nil && !typedServerError(err) {
					t.Errorf("untyped write error: %v", err)
					return
				}
				if _, err := sess.AskContext(context.Background(), q); err != nil && !typedServerError(err) {
					t.Errorf("untyped read error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// typedServerError reports whether err is one of the server's documented
// failure modes — the only errors a client should ever see.
func typedServerError(err error) bool {
	return errors.Is(err, webreason.ErrDegraded) ||
		errors.Is(err, webreason.ErrOverloaded) ||
		errors.Is(err, webreason.ErrServerClosed) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}
