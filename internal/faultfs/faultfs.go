// Package faultfs is a fault-injecting persist.FS for deterministic
// robustness testing. A Schedule scripts exactly which operations fail and
// how — the Nth fsync returns EIO, writes hit ENOSPC once a byte budget is
// spent, a chosen write is torn after a prefix, an op class gains latency,
// a chosen op is held until the test releases it — and Wrap interposes it
// between the persistence layer and a real filesystem. The same schedule
// replayed against the same workload injects the same faults, so chaos
// tests are seeded-reproducible and unit tests can aim a single fault at a
// single protocol step.
//
// Every injected error wraps ErrInjected (so tests can tell scripted faults
// from real ones) and the modelled cause (so production code sees the errno
// it would see in the wild): errors.Is(err, faultfs.ErrInjected) and
// errors.Is(err, syscall.ENOSPC) both hold for an injected ENOSPC.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/persist"
)

// Op classifies the filesystem operations a Schedule can target.
type Op uint8

const (
	OpMkdir    Op = iota
	OpOpen        // OpenFile and Open (read-only handles)
	OpWrite       // File.Write
	OpSync        // File.Sync (files and directory handles)
	OpRead        // ReadFile and ReadFileFrom (replication stream reads)
	OpReadDir     // ReadDir
	OpRename      // Rename
	OpRemove      // Remove
	OpTruncate    // Truncate
	opCount
)

var opNames = [opCount]string{
	OpMkdir: "mkdir", OpOpen: "open", OpWrite: "write", OpSync: "sync",
	OpRead: "read", OpReadDir: "readdir", OpRename: "rename",
	OpRemove: "remove", OpTruncate: "truncate",
}

func (o Op) String() string {
	if o < opCount {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ErrInjected marks every fault this package injects. Test assertions use it
// to distinguish scripted failures from genuine filesystem trouble.
var ErrInjected = errors.New("faultfs: injected fault")

// Fault is the concrete error returned for one injected failure. It unwraps
// to both ErrInjected and the modelled cause, so errors.Is matches either.
type Fault struct {
	Op    Op
	Path  string
	Cause error // modelled errno (syscall.EIO, syscall.ENOSPC, …)
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultfs: injected %s fault on %s: %v", f.Op, f.Path, f.Cause)
}

func (f *Fault) Unwrap() []error { return []error{ErrInjected, f.Cause} }

// rule is one scripted fault or latency entry. Matching is per rule: each
// rule keeps its own count of the operations it matched, so two rules
// targeting the same op class fire independently and deterministically.
type rule struct {
	op      Op
	pathSub string        // "" matches every path; else substring match
	nth     int           // fire on the nth match (1-based); 0 = every match
	sticky  bool          // keep firing on every match ≥ nth
	cause   error         // modelled errno for faults; nil for latency rules
	keep    int           // torn write: payload bytes persisted before failing (-1 = not torn)
	latency time.Duration // latency rules: sleep per match
	hold    *Hold         // hold rules: park the nth match until released
	seen    int
	fired   bool
}

// matches reports whether the rule applies to this op/path and advances the
// rule's private match counter.
func (r *rule) matches(op Op, path string) bool {
	if r.op != op || (r.pathSub != "" && !strings.Contains(path, r.pathSub)) {
		return false
	}
	r.seen++
	return true
}

// due reports whether a matched fault rule should fire now.
func (r *rule) due() bool {
	switch {
	case r.nth == 0:
		return true
	case r.sticky:
		return r.seen >= r.nth
	case r.fired:
		return false
	default:
		return r.seen == r.nth
	}
}

// Schedule scripts a deterministic sequence of faults. Build one with the
// chainable methods, then attach it with Wrap or FS.SetSchedule. A Schedule
// must not be mutated after it is attached.
type Schedule struct {
	rules  []*rule
	budget int64 // write-byte budget before sticky ENOSPC; -1 = unlimited
}

// NewSchedule returns an empty schedule (injects nothing).
func NewSchedule() *Schedule { return &Schedule{budget: -1} }

// FailSync makes the nth fsync — file or directory handle, any path — fail
// once with EIO. Modelled on a kernel that reports a writeback error on the
// next fsync and then clears it.
func (s *Schedule) FailSync(nth int) *Schedule { return s.FailOpOn(OpSync, "", nth, syscall.EIO) }

// FailSyncOn is FailSync restricted to paths containing pathSub
// (e.g. "wal-" to spare directory and snapshot fsyncs).
func (s *Schedule) FailSyncOn(pathSub string, nth int) *Schedule {
	return s.FailOpOn(OpSync, pathSub, nth, syscall.EIO)
}

// FailOp makes the nth operation of class op fail once with EIO.
func (s *Schedule) FailOp(op Op, nth int) *Schedule { return s.FailOpOn(op, "", nth, syscall.EIO) }

// FailOpOn makes the nth op whose path contains pathSub fail once with the
// given cause. nth == 0 fails every match.
func (s *Schedule) FailOpOn(op Op, pathSub string, nth int, cause error) *Schedule {
	s.rules = append(s.rules, &rule{op: op, pathSub: pathSub, nth: nth, cause: cause, keep: -1})
	return s
}

// FailOpAlways makes every op whose path contains pathSub fail with cause,
// from the nth match on — a persistently broken disk, not a one-shot glitch.
func (s *Schedule) FailOpAlways(op Op, pathSub string, nth int, cause error) *Schedule {
	s.rules = append(s.rules, &rule{op: op, pathSub: pathSub, nth: nth, sticky: true, cause: cause, keep: -1})
	return s
}

// ENOSPCAfter grants writes a total byte budget; once cumulative persisted
// bytes reach it, every further write persists only what fits and fails with
// ENOSPC — sticky, as a full disk is. The budget is accounted across all
// files of the FS.
func (s *Schedule) ENOSPCAfter(bytes int64) *Schedule {
	s.budget = bytes
	return s
}

// TornWrite makes the nth write (optionally path-filtered via TornWriteOn)
// persist only the first keep bytes of its payload and fail with EIO — a
// power cut or kernel crash mid-write, the short prefix left on disk.
func (s *Schedule) TornWrite(nth, keep int) *Schedule { return s.TornWriteOn("", nth, keep) }

// TornWriteOn is TornWrite restricted to paths containing pathSub.
func (s *Schedule) TornWriteOn(pathSub string, nth, keep int) *Schedule {
	if keep < 0 {
		keep = 0
	}
	s.rules = append(s.rules, &rule{op: OpWrite, pathSub: pathSub, nth: nth, cause: syscall.EIO, keep: keep})
	return s
}

// Latency makes every operation of class op sleep d before executing —
// a slow disk, for exercising timeout and context-cancellation paths.
func (s *Schedule) Latency(op Op, d time.Duration) *Schedule {
	s.rules = append(s.rules, &rule{op: op, nth: 0, keep: -1, latency: d})
	return s
}

// LatencyOn is Latency restricted to paths containing pathSub.
func (s *Schedule) LatencyOn(op Op, pathSub string, d time.Duration) *Schedule {
	s.rules = append(s.rules, &rule{op: op, pathSub: pathSub, nth: 0, keep: -1, latency: d})
	return s
}

// Hold is a gate that a schedule parks operations on (see HoldOn): a parked
// operation announces itself on Held, waits for Release, and then runs —
// or fails, if another rule says so. Tests use it to freeze the
// persistence layer at an exact protocol step, with no sleeps.
type Hold struct {
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

// NewHold returns a shut gate with nothing parked on it.
func NewHold() *Hold { return &Hold{held: make(chan struct{}, 1), release: make(chan struct{})} }

// Held receives once for each operation parked on the hold.
func (h *Hold) Held() <-chan struct{} { return h.held }

// Release lets every parked operation, and any later one, proceed.
func (h *Hold) Release() { h.once.Do(func() { close(h.release) }) }

func (h *Hold) park() {
	select {
	case h.held <- struct{}{}:
	case <-h.release:
		return
	}
	<-h.release
}

// HoldOn parks the nth op of class op whose path contains pathSub on h
// until h is released (nth == 0 parks every match).
func (s *Schedule) HoldOn(op Op, pathSub string, nth int, h *Hold) *Schedule {
	s.rules = append(s.rules, &rule{op: op, pathSub: pathSub, nth: nth, keep: -1, hold: h})
	return s
}

// delay is what the schedule makes one operation wait before it runs.
type delay struct {
	sleep time.Duration
	hold  *Hold
}

func (d delay) wait() {
	if d.sleep > 0 {
		time.Sleep(d.sleep)
	}
	if d.hold != nil {
		d.hold.park()
	}
}

// delayed folds a matched latency or hold rule into d, reporting whether r
// was one (and so injects no fault).
func (d *delay) delayed(r *rule) bool {
	switch {
	case r.latency > 0:
		d.sleep += r.latency
	case r.hold != nil:
		if d.hold == nil && r.due() {
			r.fired = true
			d.hold = r.hold
		}
	default:
		return false
	}
	return true
}

// FS implements persist.FS over an inner FS, injecting the attached
// Schedule's faults. Safe for concurrent use; rule matching is serialised
// under one mutex so schedules stay deterministic for a deterministic
// operation order.
type FS struct {
	inner persist.FS

	mu       sync.Mutex
	sched    *Schedule
	written  int64 // bytes persisted, for the ENOSPC budget
	injected int
	opSeen   [opCount]int
}

// Wrap interposes sched between the caller and inner. A nil sched injects
// nothing until SetSchedule.
func Wrap(inner persist.FS, sched *Schedule) *FS {
	if sched == nil {
		sched = NewSchedule()
	}
	return &FS{inner: inner, sched: sched}
}

// New wraps the real filesystem.
func New(sched *Schedule) *FS { return Wrap(persist.OS, sched) }

// SetSchedule replaces the schedule. Counters of the old schedule's rules
// are abandoned with it; the FS-wide op and byte counters keep running.
func (f *FS) SetSchedule(s *Schedule) {
	if s == nil {
		s = NewSchedule()
	}
	f.mu.Lock()
	f.sched = s
	f.mu.Unlock()
}

// Clear drops the schedule — the disk is "repaired"; subsequent operations
// pass through untouched.
func (f *FS) Clear() { f.SetSchedule(nil) }

// Injected returns how many faults have fired.
func (f *FS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// OpCount returns how many operations of class op the FS has seen
// (successful or failed) — useful for calibrating nth values in tests.
func (f *FS) OpCount(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op < opCount {
		return f.opSeen[op]
	}
	return 0
}

// check runs the schedule for one non-write operation: it returns the delay
// to wait out (outside the lock) and the fault to return, if any.
func (f *FS) check(op Op, path string) (d delay, fault error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opSeen[op]++
	for _, r := range f.sched.rules {
		if !r.matches(op, path) || d.delayed(r) {
			continue
		}
		if fault == nil && r.due() {
			r.fired = true
			f.injected++
			fault = &Fault{Op: op, Path: path, Cause: r.cause}
		}
	}
	return d, fault
}

// checkWrite runs the schedule for one write of n payload bytes. It returns
// how many bytes to pass through to the inner file (n when no fault fires)
// and the fault to return after the partial write, if any.
func (f *FS) checkWrite(path string, n int) (d delay, allow int, fault error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opSeen[OpWrite]++
	allow = n
	for _, r := range f.sched.rules {
		if !r.matches(OpWrite, path) || d.delayed(r) {
			continue
		}
		if fault == nil && r.due() {
			r.fired = true
			f.injected++
			fault = &Fault{Op: OpWrite, Path: path, Cause: r.cause}
			if r.keep >= 0 && r.keep < allow {
				allow = r.keep // torn: persist the scripted prefix
			} else if r.keep < 0 {
				allow = 0 // plain write failure persists nothing
			}
		}
	}
	if f.sched.budget >= 0 {
		if room := f.sched.budget - f.written; int64(allow) > room {
			if fault == nil {
				f.injected++
				fault = &Fault{Op: OpWrite, Path: path, Cause: syscall.ENOSPC}
			}
			allow = int(room)
		}
	}
	f.written += int64(allow)
	return d, allow, fault
}

// --- persist.FS ---

func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	d, fault := f.check(OpMkdir, dir)
	d.wait()
	if fault != nil {
		return fault
	}
	return f.inner.MkdirAll(dir, perm)
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	d, fault := f.check(OpOpen, name)
	d.wait()
	if fault != nil {
		return nil, fault
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, path: name, inner: inner}, nil
}

func (f *FS) Open(name string) (persist.File, error) {
	d, fault := f.check(OpOpen, name)
	d.wait()
	if fault != nil {
		return nil, fault
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, path: name, inner: inner}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	d, fault := f.check(OpRead, name)
	d.wait()
	if fault != nil {
		return nil, fault
	}
	return f.inner.ReadFile(name)
}

// ReadFileFrom shares ReadFile's OpRead class, so a schedule scripted before
// replication existed — a latency rule slowing reads, a failing disk —
// applies to a follower's incremental stream reads without any change.
func (f *FS) ReadFileFrom(name string, off int64) ([]byte, error) {
	d, fault := f.check(OpRead, name)
	d.wait()
	if fault != nil {
		return nil, fault
	}
	return f.inner.ReadFileFrom(name, off)
}

func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) {
	d, fault := f.check(OpReadDir, dir)
	d.wait()
	if fault != nil {
		return nil, fault
	}
	return f.inner.ReadDir(dir)
}

func (f *FS) Rename(oldpath, newpath string) error {
	d, fault := f.check(OpRename, newpath)
	d.wait()
	if fault != nil {
		return fault
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	d, fault := f.check(OpRemove, name)
	d.wait()
	if fault != nil {
		return fault
	}
	return f.inner.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	d, fault := f.check(OpTruncate, name)
	d.wait()
	if fault != nil {
		return fault
	}
	return f.inner.Truncate(name, size)
}

// file wraps an inner persist.File, injecting write and sync faults.
type file struct {
	fs    *FS
	path  string
	inner persist.File
}

func (fl *file) Write(p []byte) (int, error) {
	d, allow, fault := fl.fs.checkWrite(fl.path, len(p))
	d.wait()
	if fault == nil {
		return fl.inner.Write(p)
	}
	n := 0
	if allow > 0 {
		// Persist the torn prefix / what fits in the ENOSPC budget; a real
		// short write leaves those bytes behind. An inner error on this
		// partial write is subsumed by the scripted fault.
		n, _ = fl.inner.Write(p[:allow])
	}
	return n, fault
}

func (fl *file) Sync() error {
	d, fault := fl.fs.check(OpSync, fl.path)
	d.wait()
	if fault != nil {
		return fault
	}
	return fl.inner.Sync()
}

func (fl *file) Stat() (os.FileInfo, error) { return fl.inner.Stat() }
func (fl *file) Close() error               { return fl.inner.Close() }
