package store

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// TestTripleSetEquivalence randomizes Add/Remove/Contains against a map
// reference, mirroring the packed-store property test for the single-index
// set, including snapshot isolation and codec round-trips along the way.
func TestTripleSetEquivalence(t *testing.T) {
	const (
		steps = 4000
		maxID = dict.ID(6)
	)
	rng := rand.New(rand.NewSource(11))
	s := NewTripleSet()
	ref := map[Triple]struct{}{}
	randID := func() dict.ID { return dict.ID(rng.Intn(int(maxID)) + 1) }

	type frozen struct {
		snap *TripleSetSnapshot
		ref  map[Triple]struct{}
	}
	var snaps []frozen

	for step := 0; step < steps; step++ {
		x := Triple{randID(), randID(), randID()}
		switch rng.Intn(3) {
		case 0, 1:
			_, had := ref[x]
			if got := s.Add(x); got == had {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, x, got, !had)
			}
			ref[x] = struct{}{}
		case 2:
			_, had := ref[x]
			if got := s.Remove(x); got != had {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, x, got, had)
			}
			delete(ref, x)
		}
		if got, want := s.Contains(x), func() bool { _, ok := ref[x]; return ok }(); got != want {
			t.Fatalf("step %d: Contains(%v) = %v, want %v", step, x, got, want)
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
		if step%500 == 250 {
			refCopy := make(map[Triple]struct{}, len(ref))
			for k := range ref {
				refCopy[k] = struct{}{}
			}
			snaps = append(snaps, frozen{s.Snapshot(), refCopy})
		}
	}

	// Snapshots must still reflect exactly the state they froze.
	for i, f := range snaps {
		if f.snap.Len() != len(f.ref) {
			t.Fatalf("snapshot %d: Len = %d, want %d", i, f.snap.Len(), len(f.ref))
		}
		n := 0
		f.snap.ForEach(func(tr Triple) bool {
			if _, ok := f.ref[tr]; !ok {
				t.Fatalf("snapshot %d: unexpected triple %v", i, tr)
			}
			n++
			return true
		})
		if n != len(f.ref) {
			t.Fatalf("snapshot %d: ForEach yielded %d, want %d", i, n, len(f.ref))
		}
	}

	// Codec round trip of the final state.
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadSetBinary(buf.Bytes(), ^dict.ID(0))
	if err != nil {
		t.Fatalf("ReadSetBinary: %v", err)
	}
	if got.Len() != len(ref) {
		t.Fatalf("loaded Len = %d, want %d", got.Len(), len(ref))
	}
	for tr := range ref {
		if !got.Contains(tr) {
			t.Fatalf("loaded set lost %v", tr)
		}
	}
	// Loaded sets stay mutable.
	if !got.Add(Triple{maxID + 1, maxID + 1, maxID + 1}) {
		t.Fatal("loaded set rejects Add")
	}
}

// TestTripleSetSnapshotWriteIsolation serialises a snapshot after the live
// set moved on; the bytes must describe the frozen state.
func TestTripleSetSnapshotWriteIsolation(t *testing.T) {
	s := NewTripleSet()
	s.Add(Triple{1, 2, 3})
	snap := s.Snapshot()
	s.Add(Triple{4, 5, 6})
	s.Remove(Triple{1, 2, 3})

	var buf bytes.Buffer
	if err := snap.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSetBinary(buf.Bytes(), ^dict.ID(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(Triple{1, 2, 3}) || got.Contains(Triple{4, 5, 6}) {
		t.Fatalf("snapshot bytes reflect later mutations: len=%d", got.Len())
	}
}

// TestReadSetBinaryRejectsCorrupt mirrors the store decoder's corruption
// handling for the set layout.
func TestReadSetBinaryRejectsCorrupt(t *testing.T) {
	s := NewTripleSet()
	s.Add(Triple{1, 2, 3})
	s.Add(Triple{2, 2, 3})
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:len(valid)-2],
		"trailing":  append(append([]byte{}, valid...), 9),
		"size lie":  append([]byte{7}, valid[1:]...),
	}
	for name, b := range cases {
		if _, err := ReadSetBinary(b, ^dict.ID(0)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// maxID bound enforced.
	if _, err := ReadSetBinary(valid, dict.ID(2)); err == nil {
		t.Error("ID beyond dictionary accepted")
	}
}
