package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// mkState builds a small writer-side State: n triples over fresh terms, with
// the triples in both the base (full store) and, when saturated is true, a
// set-base plus a saturated store with one extra triple.
func mkState(t testing.TB, n int, saturated bool) State {
	t.Helper()
	d := dict.New()
	base := store.New()
	baseSet := store.NewTripleSet()
	sat := store.New()
	for i := 0; i < n; i++ {
		tr := store.Triple{
			S: d.Encode(rdf.NewIRI(fmt.Sprintf("http://t/s%d", i))),
			P: d.Encode(rdf.NewIRI("http://t/p")),
			O: d.Encode(rdf.NewIRI(fmt.Sprintf("http://t/o%d", i))),
		}
		base.Add(tr)
		baseSet.Add(tr)
		sat.Add(tr)
	}
	if !saturated {
		return State{Dict: d, DictLen: d.Len(), Base: base}
	}
	sat.Add(store.Triple{
		S: d.Encode(rdf.NewIRI("http://t/s0")),
		P: d.Encode(rdf.NewIRI("http://t/derived")),
		O: d.Encode(rdf.NewIRI("http://t/o0")),
	})
	return State{Dict: d, DictLen: d.Len(), BaseSet: baseSet, Saturated: sat}
}

func triple(i int) rdf.Triple {
	return rdf.T(
		rdf.NewIRI(fmt.Sprintf("http://w/s%d", i)),
		rdf.NewIRI("http://w/p"),
		rdf.NewLangLiteral(fmt.Sprintf("obj %d", i), "en"),
	)
}

// collect replays a DB's tail into a flat list.
func collect(t *testing.T, db *DB) []Mutation {
	t.Helper()
	var out []Mutation
	if _, err := db.ReplayTail(
		func(ts ...rdf.Triple) error { out = append(out, Mutation{Del: false, Triples: ts}); return nil },
		func(ts ...rdf.Triple) error { out = append(out, Mutation{Del: true, Triples: ts}); return nil },
	); err != nil {
		t.Fatalf("ReplayTail: %v", err)
	}
	return out
}

func TestBootstrapEmptyDir(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	if db.State() != nil {
		t.Fatal("empty dir yielded a snapshot state")
	}
	if db.TailLen() != 0 {
		t.Fatalf("empty dir yielded %d tail records", db.TailLen())
	}
	if err := db.Append(false, []rdf.Triple{triple(1)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the appended record is the tail.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tail := collect(t, db2)
	if len(tail) != 1 || tail[0].Del || len(tail[0].Triples) != 1 || tail[0].Triples[0] != triple(1) {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestCheckpointRotateAndGC(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)})
	if !db.Dirty() {
		t.Fatal("WAL with a record reports clean")
	}
	if err := db.Checkpoint(mkState(t, 5, true)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if db.Dirty() {
		t.Fatal("fresh WAL after checkpoint reports dirty")
	}
	db.Append(true, []rdf.Triple{triple(2)})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Old generation's files must be gone, the new pair present.
	snaps, wals, err := scanDir(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 2 || len(wals) != 1 || wals[0] != 2 {
		t.Fatalf("dir holds snaps=%v wals=%v, want gen 2 only", snaps, wals)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.State()
	if st == nil || st.BaseSet == nil || st.Saturated == nil || st.Base != nil {
		t.Fatalf("recovered state %+v, want set-base saturated snapshot", st)
	}
	if st.BaseSet.Len() != 5 || st.Saturated.Len() != 6 || st.Dict.Len() == 0 {
		t.Fatalf("recovered sizes base=%d sat=%d dict=%d", st.BaseSet.Len(), st.Saturated.Len(), st.Dict.Len())
	}
	tail := collect(t, db2)
	if len(tail) != 1 || !tail[0].Del {
		t.Fatalf("tail = %+v, want the post-checkpoint delete", tail)
	}
}

func TestCheckpointAsyncCoversOldGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)})
	if err := db.CheckpointAsync(mkState(t, 3, false)); err != nil {
		t.Fatal(err)
	}
	// Appends continue into the rotated WAL while the snapshot is written.
	db.Append(false, []rdf.Triple{triple(2)})
	if err := db.Close(); err != nil { // waits for the background write
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.State(); st == nil || st.Base == nil || st.Base.Len() != 3 {
		t.Fatalf("state after async checkpoint: %+v", db2.State())
	}
	tail := collect(t, db2)
	if len(tail) != 1 || tail[0].Triples[0] != triple(2) {
		t.Fatalf("tail = %+v, want only the post-rotation record", tail)
	}
}

// TestTornFinalRecordTruncated cuts the last record short at every possible
// byte boundary; recovery must keep everything before it and drop the tear.
func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)})
	mark, err := os.Stat(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	db.Append(true, []rdf.Triple{triple(2), triple(3)})
	db.Close()
	full, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	for cut := mark.Size() + 1; cut < int64(len(full)); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(walPath(dir, 1))), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		tail := collect(t, db2)
		if len(tail) != 1 || tail[0].Del || tail[0].Triples[0] != triple(1) {
			t.Fatalf("cut at %d: tail = %+v, want record 1 only", cut, tail)
		}
		// The torn bytes must be gone from disk so appends continue cleanly.
		if fi, _ := os.Stat(filepath.Join(dir2, filepath.Base(walPath(dir, 1)))); fi.Size() != mark.Size() {
			t.Fatalf("cut at %d: file not truncated to %d (is %d)", cut, mark.Size(), fi.Size())
		}
		db2.Append(false, []rdf.Triple{triple(9)})
		db2.Close()
		db3, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut at %d: reopen after append: %v", cut, err)
		}
		// Replay coalesces the two adjacent insert records into one run.
		if got := collect(t, db3); len(got) != 1 || got[0].Del ||
			len(got[0].Triples) != 2 || got[0].Triples[1] != triple(9) {
			t.Fatalf("cut at %d: tail after append = %+v", cut, got)
		}
		db3.Close()
	}
}

// TestTornRotationHeaderRecovered simulates a crash between a rotation
// creating the next generation's WAL and completing its header: the newest
// file is shorter than a header and holds no records. Recovery must drop it
// and resume the previous generation instead of refusing the directory.
func TestTornRotationHeaderRecovered(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)})
	db.Close()
	header := encodeWALHeader(2, 0)

	for cut := 0; cut < walHeaderLen; cut++ {
		dir2 := t.TempDir()
		data, err := os.ReadFile(walPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(walPath(dir, 1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(walPath(dir, 2))), header[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		if db2.Generation() != 1 {
			t.Fatalf("cut at %d: generation %d, want 1 (torn rotation undone)", cut, db2.Generation())
		}
		tail := collect(t, db2)
		if len(tail) != 1 || tail[0].Triples[0] != triple(1) {
			t.Fatalf("cut at %d: tail = %+v, want record 1 only", cut, tail)
		}
		db2.Append(false, []rdf.Triple{triple(9)})
		db2.Close()
		db3, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		// Replay coalesces the two adjacent insert records into one run.
		if got := collect(t, db3); len(got) != 1 || got[0].Del ||
			len(got[0].Triples) != 2 || got[0].Triples[1] != triple(9) {
			t.Fatalf("cut at %d: tail after append = %+v", cut, got)
		}
		db3.Close()
	}
}

// TestCorruptMidLogRefuses flips a byte in a middle record: that cannot be a
// torn append, so Open must fail loudly instead of dropping history.
func TestCorruptMidLogRefuses(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recStart, _ := os.Stat(walPath(dir, 1))
	db.Append(false, []rdf.Triple{triple(1)})
	recEnd, _ := os.Stat(walPath(dir, 1))
	db.Append(false, []rdf.Triple{triple(2)})
	db.Close()

	full, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST record (safely past its frame).
	corrupt := append([]byte{}, full...)
	corrupt[recStart.Size()+walRecHdrLen] ^= 0xFF
	if err := os.WriteFile(walPath(dir, 1), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open = %v, want ErrWALCorrupt", err)
	}
	_ = recEnd
}

func TestSnapshotVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(mkState(t, 2, true)); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Bump the version field in the snapshot header.
	path := snapshotPath(dir, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(snapMagic)] = 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// The snapshot is the only one, so recovery must refuse rather than
	// silently bootstrap empty over durable data.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Open = %v, want ErrVersionMismatch", err)
	}
}

func TestWALVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)})
	db.Close()
	path := walPath(dir, 1)
	b, _ := os.ReadFile(path)
	b[len(walMagic)] = 0xFE
	os.WriteFile(path, b, 0o644)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Open = %v, want ErrVersionMismatch", err)
	}
}

// TestFallbackToOlderSnapshot damages the newest snapshot's CRC; recovery
// must fall back to the previous one and replay the full WAL chain above it.
func TestFallbackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(mkState(t, 3, false)); err != nil { // snap-2
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)})                   // wal-2
	if err := db.Checkpoint(mkState(t, 4, false)); err != nil { // snap-3
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(2)}) // wal-3
	db.Close()

	// snap-3 normally wins…
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := db2.State(); st.Generation != 3 || st.Base.Len() != 4 {
		t.Fatalf("state = gen %d len %d, want gen 3 len 4", st.Generation, st.Base.Len())
	}
	if tail := collect(t, db2); len(tail) != 1 || tail[0].Triples[0] != triple(2) {
		t.Fatalf("tail = %+v", tail)
	}
	db2.Close()

	// …but snap-3 was written AFTER wal-2 was rotated away, so checkpointing
	// deleted wal-2 and snap-2. Recreate the fallback scenario instead: undo
	// the GC by re-checkpointing, then damage the newest snapshot.
	db3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db3.Close()
	path := snapshotPath(dir, 3)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF // break the last section's CRC
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// No older snapshot survives (GC removed it), so Open must refuse.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a directory whose only snapshot is corrupt")
	}
}

// TestFallbackChainIntact exercises the real mid-checkpoint crash shape: the
// new WAL exists but the new snapshot never landed (crash before rename), so
// recovery uses the old snapshot plus BOTH wal generations.
func TestFallbackChainIntact(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(mkState(t, 3, false)); err != nil { // gen 2
		t.Fatal(err)
	}
	db.Append(false, []rdf.Triple{triple(1)}) // wal-2
	// Simulate "rotate happened, snapshot write crashed": create wal-3 the
	// way rotate would, append to it, and leave snap-3 as a stray .tmp.
	if _, err := db.rotate(); err != nil {
		t.Fatal(err)
	}
	db.Append(true, []rdf.Triple{triple(2)}) // wal-3
	if err := os.WriteFile(snapshotPath(dir, 3)+".tmp", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	if st := db2.State(); st.Generation != 2 || st.Base.Len() != 3 {
		t.Fatalf("state = gen %d, want the older snapshot", st.Generation)
	}
	tail := collect(t, db2)
	if len(tail) != 2 || tail[0].Del || !tail[1].Del {
		t.Fatalf("tail = %+v, want wal-2 then wal-3 records", tail)
	}
	if db2.Generation() != 3 {
		t.Fatalf("active generation = %d, want 3", db2.Generation())
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Append(false, []rdf.Triple{triple(1)}); !errors.Is(err, ErrDBClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
}

func TestCheckpointDueThresholds(t *testing.T) {
	db, err := Open(t.TempDir(), Options{CheckpointRecords: 3, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2; i++ {
		db.Append(false, []rdf.Triple{triple(i)})
		if db.CheckpointDue() {
			t.Fatalf("due after %d records, threshold 3", i+1)
		}
	}
	db.Append(false, []rdf.Triple{triple(2)})
	if !db.CheckpointDue() {
		t.Fatal("not due after reaching the record threshold")
	}
	if err := db.Checkpoint(mkState(t, 1, false)); err != nil {
		t.Fatal(err)
	}
	if db.CheckpointDue() {
		t.Fatal("due immediately after a checkpoint")
	}
}

// TestSnapshotRoundTripBothBaseForms pins that both base flavours and the
// saturated section survive a write/read cycle byte-exactly at the content
// level.
func TestSnapshotRoundTripBothBaseForms(t *testing.T) {
	for _, saturated := range []bool{false, true} {
		dir := t.TempDir()
		st := mkState(t, 7, saturated)
		if err := writeSnapshotFile(OS, dir, 9, 4, st); err != nil {
			t.Fatal(err)
		}
		ls, err := readSnapshotFile(OS, snapshotPath(dir, 9))
		if err != nil {
			t.Fatal(err)
		}
		if ls.Generation != 9 || ls.Dict.Len() != st.Dict.Len() {
			t.Fatalf("saturated=%v: gen=%d dict=%d", saturated, ls.Generation, ls.Dict.Len())
		}
		if saturated {
			if ls.BaseSet == nil || ls.Base != nil || ls.Saturated == nil {
				t.Fatalf("saturated=%v: wrong sections %+v", saturated, ls)
			}
			if ls.BaseSet.Len() != 7 || ls.Saturated.Len() != 8 {
				t.Fatalf("sizes: base=%d sat=%d", ls.BaseSet.Len(), ls.Saturated.Len())
			}
		} else if ls.Base == nil || ls.BaseSet != nil || ls.Saturated != nil || ls.Base.Len() != 7 {
			t.Fatalf("saturated=%v: wrong sections %+v", saturated, ls)
		}
	}
}

// TestDirectoryLock pins single-process ownership: a second Open of a live
// directory fails, and Close releases the claim.
func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked directory succeeded")
	} else {
		// The failure must be typed (front ends branch on it) and its message
		// must carry the operator's remediation: which directory, and what to
		// do about it.
		if !errors.Is(err, ErrLocked) {
			t.Fatalf("second Open error should match ErrLocked, got %v", err)
		}
		var le *LockedError
		if !errors.As(err, &le) || le.Dir != dir {
			t.Fatalf("second Open error should be a LockedError carrying %s, got %v", dir, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, dir) || !strings.Contains(msg, "stop the other process") {
			t.Fatalf("lock error should name the directory and remediation, got %q", msg)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	db2.Close()
}

// TestRecoveredTailCountsTowardCheckpoint pins the crash-loop guard: a
// reopened WAL's existing records count toward the CheckpointRecords
// trigger, so replay debt cannot grow unboundedly across restarts.
func TestRecoveredTailCountsTowardCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{CheckpointRecords: 4, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		db.Append(false, []rdf.Triple{triple(i)})
	}
	db.Close() // no checkpoint: tail stays on disk

	db2, err := Open(dir, Options{CheckpointRecords: 4, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.CheckpointDue() {
		t.Fatal("recovered 5-record tail does not trip the 4-record checkpoint trigger")
	}
}

// TestOversizedLengthClaimMidLogRefuses pins the decoder ordering: a frame
// header claiming more than maxWALRecord is corruption, not a torn tail —
// treating it as torn would silently drop every record behind it.
func TestOversizedLengthClaimMidLogRefuses(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, _ := os.Stat(walPath(dir, 1))
	db.Append(false, []rdf.Triple{triple(1)})
	db.Append(false, []rdf.Triple{triple(2)})
	db.Close()
	b, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the first record's length field with a huge claim.
	b[off.Size()] = 0xFF
	b[off.Size()+1] = 0xFF
	b[off.Size()+2] = 0xFF
	b[off.Size()+3] = 0x7F
	os.WriteFile(walPath(dir, 1), b, 0o644)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open = %v, want ErrWALCorrupt", err)
	}
}

// TestOrphanSnapshotTmpSwept pins that Open removes snapshot temporaries a
// crashed checkpoint left behind.
func TestOrphanSnapshotTmpSwept(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	orphan := snapshotPath(dir, 9) + ".tmp"
	if err := os.WriteFile(orphan, []byte("partial checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphan %s survived Open: %v", orphan, err)
	}
}
