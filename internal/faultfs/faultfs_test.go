package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/rdf"
)

func tripleBatch() []rdf.Triple {
	return []rdf.Triple{rdf.T(
		rdf.NewIRI("http://t/s"),
		rdf.NewIRI("http://t/p"),
		rdf.NewIRI("http://t/o"),
	)}
}

// openWrite opens path for appending writes through fsys, failing the test
// on error.
func openWrite(t *testing.T, fsys *FS, path string) persist.File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return f
}

func TestFailSyncNth(t *testing.T) {
	dir := t.TempDir()
	fsys := New(NewSchedule().FailSync(2))
	f := openWrite(t, fsys, filepath.Join(dir, "a"))
	defer f.Close()

	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1 should pass: %v", err)
	}
	err := f.Sync()
	if err == nil {
		t.Fatal("sync 2 should fail")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error should wrap ErrInjected: %v", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("error should wrap EIO: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 should pass again (one-shot fault): %v", err)
	}
	if got := fsys.Injected(); got != 1 {
		t.Errorf("Injected() = %d, want 1", got)
	}
	if got := fsys.OpCount(OpSync); got != 3 {
		t.Errorf("OpCount(OpSync) = %d, want 3", got)
	}
}

func TestFailSyncOnPathFilter(t *testing.T) {
	dir := t.TempDir()
	fsys := New(NewSchedule().FailSyncOn("wal-", 1))
	other := openWrite(t, fsys, filepath.Join(dir, "snap-x"))
	defer other.Close()
	wal := openWrite(t, fsys, filepath.Join(dir, "wal-x"))
	defer wal.Close()

	if err := other.Sync(); err != nil {
		t.Fatalf("non-matching path should pass: %v", err)
	}
	if err := wal.Sync(); err == nil {
		t.Fatal("first wal- sync should fail")
	}
	if err := wal.Sync(); err != nil {
		t.Fatalf("second wal- sync should pass: %v", err)
	}
}

func TestENOSPCAfter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	fsys := New(NewSchedule().ENOSPCAfter(10))
	f := openWrite(t, fsys, path)
	defer f.Close()

	if n, err := f.Write([]byte("123456")); err != nil || n != 6 {
		t.Fatalf("write within budget: n=%d err=%v", n, err)
	}
	n, err := f.Write([]byte("78901234"))
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("over-budget write should be injected ENOSPC, got %v", err)
	}
	if n != 4 {
		t.Fatalf("over-budget write should persist the 4 bytes that fit, persisted %d", n)
	}
	// Sticky: nothing fits any more.
	if n, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) || n != 0 {
		t.Fatalf("post-budget write: n=%d err=%v, want 0 bytes + ENOSPC", n, err)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(b) != "1234567890" {
		t.Fatalf("on-disk bytes = %q, want the 10-byte budget prefix", b)
	}
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a")
	fsys := New(NewSchedule().TornWrite(2, 3))
	f := openWrite(t, fsys, path)
	defer f.Close()

	if _, err := f.Write([]byte("full!")); err != nil {
		t.Fatalf("write 1 should pass: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 should be torn, got err=%v", err)
	}
	if n != 3 {
		t.Fatalf("torn write persisted %d bytes, want 3", n)
	}
	if _, err := f.Write([]byte("after")); err != nil {
		t.Fatalf("write 3 should pass: %v", err)
	}
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(b) != "full!abcafter" {
		t.Fatalf("on-disk bytes = %q, want torn prefix between intact writes", b)
	}
}

func TestFailOpAlwaysSticky(t *testing.T) {
	dir := t.TempDir()
	fsys := New(NewSchedule().FailOpAlways(OpRemove, "", 2, syscall.EIO))
	path := filepath.Join(dir, "a")
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := fsys.Remove(path)
		if i == 0 && err != nil {
			t.Fatalf("remove 1 should pass: %v", err)
		}
		if i > 0 && !errors.Is(err, ErrInjected) {
			t.Fatalf("remove %d should keep failing: %v", i+1, err)
		}
	}
}

func TestLatency(t *testing.T) {
	dir := t.TempDir()
	const d = 30 * time.Millisecond
	fsys := New(NewSchedule().Latency(OpRead, d))
	path := filepath.Join(dir, "a")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := fsys.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("ReadFile took %v, want ≥ %v of injected latency", took, d)
	}
	// Replication stream reads share the OpRead class: a schedule scripted
	// before ReadFileFrom existed slows it down too, with no schedule change.
	start = time.Now()
	if _, err := fsys.ReadFileFrom(path, 0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < d {
		t.Fatalf("ReadFileFrom took %v, want ≥ %v of injected latency", took, d)
	}
}

// TestHoldParksTheNthOp: the held sync waits for Release and then runs
// (failing here, by a second rule on the same sync); syncs before and after
// it pass straight through.
func TestHoldParksTheNthOp(t *testing.T) {
	dir := t.TempDir()
	hold := NewHold()
	fsys := New(NewSchedule().HoldOn(OpSync, "", 2, hold).FailSync(2))
	f := openWrite(t, fsys, filepath.Join(dir, "a"))
	defer f.Close()

	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1 should pass unheld: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Sync() }()
	<-hold.Held()
	select {
	case err := <-done:
		t.Fatalf("held sync returned before Release: %v", err)
	default:
	}
	hold.Release()
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("released sync 2 = %v, want the scripted fault", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 should pass unheld: %v", err)
	}
}

func TestClearRepairsDisk(t *testing.T) {
	dir := t.TempDir()
	fsys := New(NewSchedule().FailOpAlways(OpSync, "", 1, syscall.EIO))
	f := openWrite(t, fsys, filepath.Join(dir, "a"))
	defer f.Close()
	if err := f.Sync(); err == nil {
		t.Fatal("sync should fail before Clear")
	}
	fsys.Clear()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync should pass after Clear: %v", err)
	}
}

// TestPersistThroughFaultFS smoke-checks the integration: a persist.DB whose
// very first WAL fsync fails reports the failure to the caller under
// SyncAlways, and the directory still recovers everything that was durable.
func TestPersistThroughFaultFS(t *testing.T) {
	dir := t.TempDir()
	// Sync #1 on the WAL is the freshly written header during Open; #2 is the
	// first durable append.
	fsys := New(NewSchedule().FailSyncOn("wal-", 2))
	db, err := persist.Open(dir, persist.Options{Sync: persist.SyncAlways, FS: fsys})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if err := db.Append(false, tripleBatch()); !errors.Is(err, ErrInjected) {
		t.Fatalf("first durable append should surface the injected sync fault, got %v", err)
	}
	// A failed WAL fsync is sticky — the kernel may have dropped the dirty
	// pages — so the second append is refused with the same cause even though
	// the schedule's fault is spent.
	if err := db.Append(false, tripleBatch()); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after a failed fsync should be refused with the sticky cause, got %v", err)
	}
}
