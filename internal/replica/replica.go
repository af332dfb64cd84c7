// Package replica implements WAL-shipping replication for the serving
// stack: a follower process reproduces a primary's persist generation chain
// byte for byte (checkpoint bootstrap, then a live tail of the write-ahead
// log), replays every shipped record through the normal strategy maintenance
// path, and serves read-only queries at bounded staleness. Failover promotes
// the follower: it replays whatever tail it holds, fences the old primary's
// chain behind a bumped term, and reopens its local mirror as a writable
// persist.DB.
//
// The design leans entirely on the persist layer's invariants rather than a
// bespoke wire protocol:
//
//   - The unit of shipping is the chain file. A follower mirrors verbatim
//     bytes — snapshot images and WAL prefixes — so its local directory is at
//     every instant a valid persist data directory holding a prefix of the
//     primary's history (see persist.Mirror).
//   - Torn streams cost nothing. WAL records are CRC-framed; the follower
//     appends and applies only complete verified records, so a read that
//     catches the primary mid-append (or a primary crash mid-record) just
//     ends the chunk early and the next poll re-reads from the verified
//     offset.
//   - A follower crash loses nothing it acknowledged. Restart recovers the
//     local mirror, rebuilds the strategy from the newest local snapshot plus
//     the local WAL tail, and resumes fetching at the verified size — only
//     the gap is re-shipped.
//   - Falling behind is safe. When the primary's checkpoint GC removes a WAL
//     generation the follower still needs, the follower re-bootstraps from
//     the newest checkpoint (swapping its serving strategy atomically) —
//     it never serves state with a gap in it.
//   - Split-brain is fenced at the storage layer. Every WAL and snapshot
//     header carries the primary's monotonic term; promotion bumps it and
//     best-effort writes a TERM fence into the old primary's directory. A
//     revived old primary fails its own Open, and a follower that sees a
//     stale or fenced source degrades with a typed error instead of
//     consuming a deposed history.
package replica

import (
	"fmt"

	"repro/internal/persist"
)

// Source is the follower's view of a primary's data directory. The three
// read methods are snapshot-free and lock-free on the primary: they race its
// appends, rotations and GC, and the follower's verification absorbs every
// such race (a vanished file reads as lagging, a mid-append read as a short
// chunk). Implementations: FSFeeder ships a directory reachable through a
// filesystem; a network transport would implement the same five methods over
// RPC.
type Source interface {
	// Chain returns a point-in-time scan of the source chain: snapshot
	// generations, WAL extents, fence term.
	Chain() (persist.ChainInfo, error)
	// ReadSnapshot returns the complete snapshot image of generation gen.
	ReadSnapshot(gen uint64) ([]byte, error)
	// ReadWALFrom returns the bytes of generation gen's WAL from byte offset
	// off to the file's current end (empty when off is at or past the end).
	ReadWALFrom(gen uint64, off int64) ([]byte, error)
	// Fence durably records term as the source directory's minimum owning
	// term, refusing any lower-termed process at its next Open. Called
	// best-effort during promotion; see persist.WriteFence.
	Fence(term uint64) error
	// String names the source for errors and logs.
	String() string
}

// FSFeeder ships a primary's data directory through a persist.FS — the same
// machine, a shared filesystem, or a fault-injecting test FS. It takes no
// locks and never writes (except Fence), so it can point at a directory a
// live primary owns.
type FSFeeder struct {
	dir string
	fs  persist.FS
}

// NewFSFeeder returns a feeder for the data directory at dir; fsys nil means
// the real filesystem.
func NewFSFeeder(dir string, fsys persist.FS) *FSFeeder {
	if fsys == nil {
		fsys = persist.OS
	}
	return &FSFeeder{dir: dir, fs: fsys}
}

func (f *FSFeeder) Chain() (persist.ChainInfo, error) { return persist.ScanChain(f.fs, f.dir) }

func (f *FSFeeder) ReadSnapshot(gen uint64) ([]byte, error) {
	return f.fs.ReadFile(persist.SnapshotFilePath(f.dir, gen))
}

func (f *FSFeeder) ReadWALFrom(gen uint64, off int64) ([]byte, error) {
	return f.fs.ReadFileFrom(persist.WALFilePath(f.dir, gen), off)
}

func (f *FSFeeder) Fence(term uint64) error { return persist.WriteFence(f.fs, f.dir, term) }

func (f *FSFeeder) String() string { return fmt.Sprintf("fs:%s", f.dir) }
