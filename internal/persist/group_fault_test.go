package persist_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/rdf"
)

// recv waits for one value, failing the test instead of hanging when the
// protocol under test never sends it.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func faultTriples(i int) []rdf.Triple {
	return []rdf.Triple{rdf.T(
		rdf.NewIRI(fmt.Sprintf("http://group.example.org/s%d", i)),
		rdf.NewIRI("http://group.example.org/p"),
		rdf.NewIRI(fmt.Sprintf("http://group.example.org/o%d", i)),
	)}
}

// TestGroupCommitFsyncFailureIsSticky pins the failure half of the
// durable-prefix contract: when a covering group fsync fails, the staged
// acks receive the error AND the DB refuses every later append — a record
// under the failed fsync may be gone (the kernel reports an fsync error
// once, then clears it), so acknowledging anything behind it would lie.
// The failing fsync is injected through faultfs and held in flight while a
// second record is staged behind it, so the checks hold however the syncer
// is scheduled.
func TestGroupCommitFsyncFailureIsSticky(t *testing.T) {
	faults := faultfs.New(nil)
	db, err := persist.Open(t.TempDir(), persist.Options{
		Sync: persist.SyncGroup, CheckpointBytes: -1, CheckpointRecords: -1, FS: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The next WAL fsync is held in flight, then fails once.
	hold := faultfs.NewHold()
	faults.SetSchedule(faultfs.NewSchedule().HoldOn(faultfs.OpSync, "wal-", 1, hold).FailSyncOn("wal-", 1))

	first, behind := make(chan error, 1), make(chan error, 1)
	if err := db.AppendAck(false, faultTriples(0), func(err error) { first <- err }); err != nil {
		t.Fatal(err)
	}
	recv(t, hold.Held(), "the covering fsync")
	// Staged while the failing fsync is in flight, before its error lands:
	// the append is accepted, and its ack must carry the sticky error rather
	// than a nil off a later, spuriously succeeding fsync.
	if err := db.AppendAck(false, faultTriples(1), func(err error) { behind <- err }); err != nil {
		t.Fatalf("append staged before the failure landed was refused: %v", err)
	}
	hold.Release()

	if err := recv(t, first, "the covered ack"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("ack of the covered record = %v, want the injected fsync failure", err)
	}
	if err := db.AppendAck(false, faultTriples(2), nil); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append after a failed group fsync = %v, want the sticky failure", err)
	}
	if err := recv(t, behind, "the ack behind the hole"); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("record behind the durability hole acked with %v, want the sticky failure", err)
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close swallowed the sticky group-fsync failure")
	}
}
