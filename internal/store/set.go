package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/dict"
)

// TripleSet is a membership-only triple container: the same persistent
// hash-trie SPO index, copy-on-write snapshot machinery and binary
// codec as Store, minus the two extra access orders. It exists for state
// that is a set, not a database — the materialization's record of which
// triples are explicitly asserted does only point lookups (DRed's IsBase
// checks) and point updates, so carrying POS and OSP for it would triple the
// memory, checkpoint bytes and snapshot-load work for nothing.
type TripleSet struct {
	ix     index
	size   int
	sortMu *sync.Mutex // serialises promoted-leaf sorted rebuilds (WriteBinary)

	epoch  uint64
	shared bool
	snap   *TripleSetSnapshot
	copied uint64
}

// NewTripleSet returns an empty set.
func NewTripleSet() *TripleSet { return &TripleSet{sortMu: &sync.Mutex{}} }

// Contains reports membership of the (fully concrete) triple.
func (s *TripleSet) Contains(t Triple) bool {
	l := s.ix.leaf(t.S, t.P)
	return l != nil && l.contains(t.O)
}

// Len returns the number of triples in the set.
func (s *TripleSet) Len() int { return s.size }

// mut readies the set for mutation after a snapshot was taken (see
// Store.mut; same O(1) cost model).
func (s *TripleSet) mut() {
	s.snap = nil
	if s.shared {
		s.shared = false
		s.epoch++
	}
}

// Add inserts the triple and reports whether it was new.
func (s *TripleSet) Add(t Triple) bool {
	if t.S == dict.None || t.P == dict.None || t.O == dict.None {
		panic("store: TripleSet.Add of triple with wildcard (None) component")
	}
	if s.snap != nil && s.Contains(t) {
		return false
	}
	s.mut()
	m := mctx{epoch: s.epoch}
	if s.epoch == 0 {
		// Never snapshotted: single-walk path, nothing can be frozen.
		if !s.ix.addFast(t.S, t.P, t.O, &m) {
			return false
		}
		s.size++
		return true
	}
	if !s.ix.add(t.S, t.P, t.O, &m) {
		s.copied += m.copied
		return false
	}
	s.size++
	s.copied += m.copied
	return true
}

// Remove deletes the triple and reports whether it was present.
func (s *TripleSet) Remove(t Triple) bool {
	if s.snap != nil && !s.Contains(t) {
		return false
	}
	s.mut()
	m := mctx{epoch: s.epoch}
	if !s.ix.remove(t.S, t.P, t.O, &m) {
		s.copied += m.copied
		return false
	}
	s.size--
	s.copied += m.copied
	return true
}

// ForEach calls fn for every triple, stopping early if fn returns false.
// The set must not be mutated from inside fn; iteration order is
// unspecified but deterministic for a given set state.
func (s *TripleSet) ForEach(fn func(Triple) bool) { forEachInIndex(&s.ix, fn) }

// Clone returns an independent deep copy.
func (s *TripleSet) Clone() *TripleSet {
	return &TripleSet{ix: s.ix.clone(), size: s.size, sortMu: &sync.Mutex{}}
}

// Snapshot returns an immutable view of the current contents, O(1) like
// Store.Snapshot and under the same contract (call serialized with
// mutations; hand to any number of readers).
func (s *TripleSet) Snapshot() *TripleSetSnapshot {
	if s.snap == nil {
		s.snap = &TripleSetSnapshot{ix: s.ix, size: s.size, sortMu: s.sortMu, epoch: s.epoch}
		s.shared = true
	}
	return s.snap
}

// TripleSetSnapshot is an immutable point-in-time view of a TripleSet.
//
//webreason:frozen
type TripleSetSnapshot struct {
	ix     index
	size   int
	sortMu *sync.Mutex
	epoch  uint64
}

// Contains reports membership of the triple.
func (s *TripleSetSnapshot) Contains(t Triple) bool {
	l := s.ix.leaf(t.S, t.P)
	return l != nil && l.contains(t.O)
}

// Len returns the number of triples.
func (s *TripleSetSnapshot) Len() int { return s.size }

// ForEach calls fn for every triple, stopping early if fn returns false.
func (s *TripleSetSnapshot) ForEach(fn func(Triple) bool) { forEachInIndex(&s.ix, fn) }

// WriteBinary writes the canonical binary encoding (implements BinaryView):
// the same size-plus-index-section layout as a Store, with one section.
func (s *TripleSetSnapshot) WriteBinary(w io.Writer) error {
	return writeSetBinary(w, &s.ix, s.size, s.sortMu)
}

// WriteBinary implements BinaryView on the live set (serialized with
// mutations, like every read of a live container).
func (s *TripleSet) WriteBinary(w io.Writer) error {
	return writeSetBinary(w, &s.ix, s.size, s.sortMu)
}

var (
	_ BinaryView = (*TripleSet)(nil)
	_ BinaryView = (*TripleSetSnapshot)(nil)
)

func writeSetBinary(w io.Writer, ix *index, size int, sortMu *sync.Mutex) error {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(size))
	buf, err := appendIndexBinary(w, buf, ix, sortMu)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadSetBinary reconstructs a TripleSet from WriteBinary's encoding, with
// the same ID bound and zero-copy behaviour as ReadBinaryChecked.
func ReadSetBinary(b []byte, maxID dict.ID) (*TripleSet, error) {
	if maxID == dict.None {
		maxID = ^dict.ID(0)
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: truncated header", ErrStoreCorrupt)
	}
	size := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if size > uint64(len(b))/4 {
		return nil, fmt.Errorf("%w: size %d exceeds buffer", ErrStoreCorrupt, size)
	}
	s := &TripleSet{size: int(size), sortMu: &sync.Mutex{}}
	rest, err := readIndex(&s.ix, b, int(size), maxID)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStoreCorrupt, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrStoreCorrupt, len(rest))
	}
	return s, nil
}

// forEachInIndex enumerates an SPO index as triples (structural order).
func forEachInIndex(ix *index, fn func(Triple) bool) {
	ix.forEachTriple(func(s, p, o dict.ID) bool { return fn(Triple{s, p, o}) })
}
