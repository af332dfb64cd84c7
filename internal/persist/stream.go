package persist

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// WAL shipping. A replication follower reproduces the primary's generation
// chain byte for byte: it bootstraps from the newest snapshot, then tails the
// active WAL with incremental reads, appending to a local Mirror only the
// bytes it has verified as complete CRC-valid records. The mirror directory
// therefore is, at every instant, a valid persist data directory holding a
// prefix of the primary's history — promotion is nothing more than opening it
// with persist.Open under a bumped term.
//
// This file holds the storage-level pieces: ChainPos (a fleet-wide position in
// the chain), ScanChain (the feeder's view of a source directory), and Mirror
// (the follower's local copy). The transport and replay loops live in
// internal/replica.

// ChainPos is a position in a generation chain: just past the last byte of
// WAL generation Gen written under fencing term Term. Positions are totally
// ordered — promotion bumps Term, rotation bumps Gen, appends advance Off —
// so a position taken on the primary (DB.TipPos) can be compared against a
// follower's applied position to decide whether the follower's prefix covers
// it (the fleet-wide read-your-writes wait).
type ChainPos struct {
	// Term is the fencing term of the primary that wrote the position.
	Term uint64
	// Gen is the WAL generation; Off the byte offset within wal-Gen (the
	// header counts, so the smallest position in a generation is WALHeaderLen).
	Gen uint64
	Off int64
}

// Compare orders positions lexicographically by (Term, Gen, Off): negative
// when p precedes q, zero when equal, positive when p follows q.
func (p ChainPos) Compare(q ChainPos) int {
	if c := cmp.Compare(p.Term, q.Term); c != 0 {
		return c
	}
	if c := cmp.Compare(p.Gen, q.Gen); c != 0 {
		return c
	}
	return cmp.Compare(p.Off, q.Off)
}

// IsZero reports the zero position (before all history).
func (p ChainPos) IsZero() bool { return p == ChainPos{} }

func (p ChainPos) String() string {
	return fmt.Sprintf("term %d gen %d off %d", p.Term, p.Gen, p.Off)
}

// WALExtent is one WAL file of a scanned chain: its generation and current
// size in bytes. The size of any generation but the newest is final; the
// newest grows under live appends.
type WALExtent struct {
	Gen  uint64
	Size int64
}

// ChainInfo is a point-in-time view of a source data directory's generation
// chain, as a feeder reports it to a follower.
type ChainInfo struct {
	// FenceTerm is the directory's TERM fence file value, 0 when absent. A
	// follower that has adopted a term at or above a nonzero fence knows the
	// source was superseded.
	FenceTerm uint64
	// SnapGens lists the generations with a snapshot file, ascending.
	SnapGens []uint64
	// WALs lists the WAL files present, ascending by generation. Files may
	// disappear between the scan and a later read (checkpoint GC); the reader
	// treats that as lagging behind the chain, not as an error.
	WALs []WALExtent
}

// TipWAL returns the newest WAL extent and true, or false for an empty chain.
func (c ChainInfo) TipWAL() (WALExtent, bool) {
	if len(c.WALs) == 0 {
		return WALExtent{}, false
	}
	return c.WALs[len(c.WALs)-1], true
}

// WALFilePath returns the path of generation gen's WAL file under dir, and
// SnapshotFilePath the snapshot's. Exposed for replication feeders, which
// read a primary's chain files directly through an FS.
func WALFilePath(dir string, gen uint64) string { return walPath(dir, gen) }

// SnapshotFilePath is WALFilePath for snapshot files.
func SnapshotFilePath(dir string, gen uint64) string { return snapshotPath(dir, gen) }

// ScanChain lists a source data directory's chain: its snapshot generations,
// WAL files with their current sizes, and fence term. It takes no locks and
// tolerates files vanishing mid-scan (a concurrent checkpoint's GC); the
// caller reconciles against what it has already mirrored.
func ScanChain(fsys FS, dir string) (ChainInfo, error) {
	if fsys == nil {
		fsys = OS
	}
	var info ChainInfo
	snaps, wals, err := scanDir(fsys, dir)
	if err != nil {
		return ChainInfo{}, err
	}
	info.SnapGens = snaps
	for _, g := range wals {
		f, err := fsys.Open(walPath(dir, g))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // GC'd between the listing and the open
			}
			return ChainInfo{}, err
		}
		st, err := f.Stat()
		f.Close()
		if err != nil {
			return ChainInfo{}, err
		}
		info.WALs = append(info.WALs, WALExtent{Gen: g, Size: st.Size()})
	}
	if info.FenceTerm, err = readFence(fsys, dir); err != nil {
		return ChainInfo{}, err
	}
	return info, nil
}

// Mirror is a follower's local copy of a primary's generation chain. Every
// byte it holds was verified before it was written: snapshot images decode
// fully before they are adopted, and WAL bytes are appended only up to the
// last complete CRC-valid record the follower has seen (the file header
// included, verbatim). The directory is thus always a valid persist layout
// whose content is a prefix of the source's history — a crashed follower
// reopens it, resumes from the sizes on disk, and re-fetches only the gap;
// a promoted follower simply opens it with persist.Open and a bumped term.
//
// Mirror methods are not goroutine-safe; the follower's single replication
// loop owns the mirror.
type Mirror struct {
	dir  string
	fs   FS
	lock *os.File

	loaded *LoadedState // recovered snapshot state, nil when none
	tail   []Mutation   // records recovered above the snapshot

	snapGen uint64 // newest local snapshot generation, 0 when none
	gen     uint64 // WAL generation being appended, 0 when none since the snapshot
	wal     File   // open append handle for gen, nil when gen == 0
	size    int64  // verified byte length of wal-gen
	term    uint64 // highest fencing term adopted from source headers
	closed  bool
}

// OpenMirror opens (creating if needed) a follower's mirror directory and
// recovers the verified prefix it holds: the newest loadable snapshot, the
// contiguous run of verified WALs above it (a torn tail — bytes past the last
// complete record, possible when a crash interrupted an append — is truncated
// away), and the highest term in their headers. Local files that cannot
// contribute to a consistent prefix (an unreadable snapshot with no coverage
// below it, a WAL run with a gap) are deleted: the source is authoritative
// and the follower re-fetches, which is always safe and never loses anything
// that was durable here — what is deleted never formed a recoverable state.
func OpenMirror(dir string, fsys FS) (*Mirror, error) {
	if fsys == nil {
		fsys = OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	m := &Mirror{dir: dir, fs: fsys, lock: lock}
	if err := m.recover(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	return m, nil
}

// recover scans the local directory and rebuilds the mirror's position,
// deleting whatever cannot extend a consistent verified prefix.
func (m *Mirror) recover() error {
	if entries, err := m.fs.ReadDir(m.dir); err == nil {
		for _, e := range entries {
			if n := e.Name(); len(n) > 9 && n[len(n)-9:] == ".snap.tmp" {
				m.fs.Remove(m.dir + string(os.PathSeparator) + n)
			}
		}
	}
	snaps, wals, err := scanDir(m.fs, m.dir)
	if err != nil {
		return err
	}
	// Newest loadable snapshot wins; unreadable ones above it are deleted (the
	// source will be asked again if their coverage is ever needed).
	for i := len(snaps) - 1; i >= 0; i-- {
		ls, err := readSnapshotFile(m.fs, snapshotPath(m.dir, snaps[i]))
		if err != nil {
			if rerr := m.fs.Remove(snapshotPath(m.dir, snaps[i])); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
				return rerr
			}
			continue
		}
		m.loaded = ls
		m.snapGen = snaps[i]
		m.term = ls.Term
		break
	}
	// Verify the WAL run above the snapshot. It must start exactly at the
	// snapshot's generation (or at the chain's first generation when no
	// snapshot exists — the source's bootstrap generation) and be contiguous;
	// anything below the snapshot is superseded, anything past a break cannot
	// apply and is deleted for re-fetch.
	drop := func(from int) error {
		for _, g := range wals[from:] {
			if err := m.fs.Remove(walPath(m.dir, g)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
		return nil
	}
	expected := m.snapGen
	for i, g := range wals {
		if g < m.snapGen {
			if err := m.fs.Remove(walPath(m.dir, g)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			continue
		}
		if m.snapGen == 0 && expected == 0 {
			expected = g // no snapshot: the run defines its own start
		}
		if g != expected {
			return drop(i)
		}
		path := walPath(m.dir, g)
		b, err := m.fs.ReadFile(path)
		if err != nil {
			return err
		}
		if len(b) < walHeaderLen {
			// A crash between creating the file and completing its header; no
			// record was lost. Delete and re-fetch from the header on.
			return drop(i)
		}
		hg, term, err := ParseWALHeader(b)
		if err != nil || hg != g || term < m.term {
			return drop(i)
		}
		recs, n, err := DecodeWALRecords(b[walHeaderLen:])
		valid := int64(walHeaderLen) + n
		if err != nil {
			return drop(i)
		}
		if valid < int64(len(b)) {
			// Torn tail: only ever written by a crashed local append; the
			// source never saw these bytes acknowledged here.
			if err := m.fs.Truncate(path, valid); err != nil {
				return err
			}
		}
		m.term = term
		m.gen = g
		m.size = valid
		m.tail = append(m.tail, recs...)
		expected = g + 1
	}
	if m.gen != 0 {
		return m.openWAL()
	}
	return nil
}

// openWAL opens wal-gen for appending and positions size at its current end.
func (m *Mirror) openWAL() error {
	f, err := m.fs.OpenFile(walPath(m.dir, m.gen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	m.wal = f
	return nil
}

// State returns the snapshot state recovered (or last adopted), nil when the
// mirror holds none. The follower seeds its strategy from it; ownership of
// the contained structures passes to the caller.
func (m *Mirror) State() *LoadedState { return m.loaded }

// Tail returns the WAL records recovered above the snapshot at OpenMirror,
// consuming them. The follower replays them into its strategy after loading
// State.
func (m *Mirror) Tail() []Mutation {
	t := m.tail
	m.tail = nil
	return t
}

// Pos returns the mirror's verified position: just past the last byte of the
// WAL being appended, under the highest adopted term. When no WAL is active
// (fresh directory, or just after a re-bootstrap adopt) Gen is 0 and Off the
// snapshot generation's start.
func (m *Mirror) Pos() ChainPos { return ChainPos{Term: m.term, Gen: m.gen, Off: m.size} }

// SnapshotGen returns the newest local snapshot generation, 0 when none.
func (m *Mirror) SnapshotGen() uint64 { return m.snapGen }

// ActiveGen returns the WAL generation being appended and the number of
// verified bytes it holds locally — the offset the follower resumes fetching
// from. Gen 0 means no WAL since the last snapshot adopt.
func (m *Mirror) ActiveGen() (gen uint64, size int64) { return m.gen, m.size }

// Term returns the highest fencing term the mirror has adopted from source
// headers. A promoted follower claims Term()+1.
func (m *Mirror) Term() uint64 { return m.term }

// AppendWAL appends verified source bytes to wal-gen. The caller guarantees b
// holds only bytes it has verified: for a new generation (gen greater than the
// active one) b must begin at offset 0 with the full file header, whose
// generation must match and whose term must not regress below the mirror's —
// a lower term means the source is a deposed primary and the append fails
// with ErrFenced; for the active generation, off must equal the mirror's
// verified size (b continues exactly where the local copy ends) and b must
// contain only whole records. Partial records must never be appended — the
// mirror's crash recovery would truncate them, but the source's offsets are
// only re-fetched from the verified size.
func (m *Mirror) AppendWAL(gen uint64, off int64, b []byte) error {
	if m.closed {
		return ErrDBClosed
	}
	switch {
	case gen > m.gen && gen >= m.snapGen:
		if off != 0 {
			return fmt.Errorf("persist: mirror: new generation %d must start at offset 0, got %d", gen, off)
		}
		hg, term, err := ParseWALHeader(b)
		if err != nil {
			return err
		}
		if hg != gen {
			return fmt.Errorf("%w: mirror: header generation %d, want %d", ErrWALCorrupt, hg, gen)
		}
		if term < m.term {
			return &FencedError{Dir: m.dir, Term: term, Fence: m.term}
		}
		if m.wal != nil {
			if err := m.wal.Sync(); err != nil {
				return err
			}
			if err := m.wal.Close(); err != nil {
				return err
			}
			m.wal = nil
		}
		m.gen, m.size, m.term = gen, 0, term
		if err := m.openWAL(); err != nil {
			return err
		}
	case gen == m.gen && m.wal != nil:
		if off != m.size {
			return fmt.Errorf("persist: mirror: append at offset %d, verified size is %d", off, m.size)
		}
	default:
		return fmt.Errorf("persist: mirror: append to generation %d, active is %d (snapshot %d)", gen, m.gen, m.snapGen)
	}
	if _, err := m.wal.Write(b); err != nil {
		return err
	}
	m.size += int64(len(b))
	return nil
}

// AdoptSnapshot validates and durably installs a snapshot image fetched from
// the source, returning its decoded state. Used at bootstrap (first contact),
// at re-bootstrap (the follower lagged past the source's GC and the WAL run
// it needs is gone), and opportunistically when the source publishes a new
// checkpoint — adopting it lets the mirror GC its own older generations. A
// snapshot whose term regresses below the mirror's fails with ErrFenced. On
// success every local file below gen is removed, and a WAL run older than gen
// is abandoned (the follower continues from wal-gen at offset 0).
func (m *Mirror) AdoptSnapshot(gen uint64, b []byte) (*LoadedState, error) {
	if m.closed {
		return nil, ErrDBClosed
	}
	ls, err := decodeSnapshot(b)
	if err != nil {
		return nil, err
	}
	if ls.Generation != gen {
		return nil, fmt.Errorf("%w: mirror: snapshot generation %d, want %d", ErrSnapshotCorrupt, ls.Generation, gen)
	}
	if ls.Term < m.term {
		return nil, &FencedError{Dir: m.dir, Term: ls.Term, Fence: m.term}
	}
	if gen < m.snapGen {
		return nil, fmt.Errorf("persist: mirror: snapshot generation %d below local %d", gen, m.snapGen)
	}
	final := snapshotPath(m.dir, gen)
	if err := writeFileSync(m.fs, final+".tmp", b); err != nil {
		return nil, err
	}
	if err := m.fs.Rename(final+".tmp", final); err != nil {
		return nil, err
	}
	if err := syncDir(m.fs, m.dir); err != nil {
		return nil, err
	}
	m.snapGen = gen
	m.term = ls.Term
	if m.gen < gen && m.wal != nil {
		// The active run is below the new snapshot: superseded, abandoned.
		if err := m.wal.Close(); err != nil {
			return nil, err
		}
		m.wal, m.gen, m.size = nil, 0, 0
	}
	m.gcBelow(gen)
	return ls, nil
}

// gcBelow removes local snapshots and WALs of generations older than gen.
// Failures are ignored: a leftover file is re-considered (and re-deleted) by
// the next recovery, exactly like the primary's GC.
func (m *Mirror) gcBelow(gen uint64) {
	snaps, wals, err := scanDir(m.fs, m.dir)
	if err != nil {
		return
	}
	for _, g := range snaps {
		if g < gen {
			m.fs.Remove(snapshotPath(m.dir, g))
		}
	}
	for _, g := range wals {
		if g < gen {
			m.fs.Remove(walPath(m.dir, g))
		}
	}
}

// Sync fsyncs the active WAL file. The follower calls it at its own cadence —
// mirrored durability lags the primary's by at most one cadence, which is the
// bounded-staleness the follower already serves under.
func (m *Mirror) Sync() error {
	if m.closed {
		return ErrDBClosed
	}
	if m.wal == nil {
		return nil
	}
	return m.wal.Sync()
}

// Close syncs and closes the active WAL and releases the directory lock. The
// mirror must not be used afterwards; a promoted follower calls Close and
// then persist.Open on the same directory with a bumped Options.Term.
func (m *Mirror) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	var err error
	if m.wal != nil {
		err = m.wal.Sync()
		if cerr := m.wal.Close(); err == nil {
			err = cerr
		}
		m.wal = nil
	}
	unlockDir(m.lock)
	return err
}
