package store

import (
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// refStore is a deliberately naive reference implementation of the store
// contract: a flat set of triples, every query a full scan. The property
// test drives it and the packed-key store through the same randomized
// operation sequence and requires observational equivalence, so the packed
// layout (leaf promotion, side tables, count maintenance) is checked as a
// drop-in replacement — including the Remove-heavy access pattern of the
// DRed maintenance paths.
type refStore struct {
	set map[Triple]struct{}
}

func newRefStore() *refStore { return &refStore{set: map[Triple]struct{}{}} }

func (r *refStore) Add(t Triple) bool {
	if _, ok := r.set[t]; ok {
		return false
	}
	r.set[t] = struct{}{}
	return true
}

func (r *refStore) Remove(t Triple) bool {
	if _, ok := r.set[t]; !ok {
		return false
	}
	delete(r.set, t)
	return true
}

func (r *refStore) Contains(t Triple) bool {
	_, ok := r.set[t]
	return ok
}

func (r *refStore) Len() int { return len(r.set) }

func (r *refStore) Match(pat Triple) map[Triple]bool {
	out := map[Triple]bool{}
	for t := range r.set {
		if pat.Matches(t) {
			out[t] = true
		}
	}
	return out
}

func (r *refStore) Predicates() map[dict.ID]bool {
	out := map[dict.ID]bool{}
	for t := range r.set {
		out[t.P] = true
	}
	return out
}

func (r *refStore) Objects(p dict.ID) map[dict.ID]bool {
	out := map[dict.ID]bool{}
	for t := range r.set {
		if t.P == p {
			out[t.O] = true
		}
	}
	return out
}

// checkEquivalent compares the packed store against the reference on every
// observable: Len, Contains, and Count/ForEachMatch across all eight
// pattern shapes over the given ID domain (0 = wildcard included).
func checkEquivalent(t *testing.T, step int, s *Store, ref *refStore, maxID dict.ID) {
	t.Helper()
	if s.Len() != ref.Len() {
		t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), ref.Len())
	}
	for sid := dict.ID(0); sid <= maxID; sid++ {
		for p := dict.ID(0); p <= maxID; p++ {
			for o := dict.ID(0); o <= maxID; o++ {
				pat := Triple{sid, p, o}
				want := ref.Match(pat)
				if got := s.Count(pat); got != len(want) {
					t.Fatalf("step %d: Count(%v) = %d, want %d", step, pat, got, len(want))
				}
				seen := map[Triple]bool{}
				s.ForEachMatch(pat, func(tr Triple) bool {
					if seen[tr] {
						t.Fatalf("step %d: ForEachMatch(%v) yielded %v twice", step, pat, tr)
					}
					if !want[tr] {
						t.Fatalf("step %d: ForEachMatch(%v) yielded %v not in reference", step, pat, tr)
					}
					seen[tr] = true
					return true
				})
				if len(seen) != len(want) {
					t.Fatalf("step %d: ForEachMatch(%v) yielded %d triples, want %d", step, pat, len(seen), len(want))
				}
			}
		}
	}
}

// TestPackedStoreEquivalence randomizes Add/Remove/Contains against the
// reference and periodically checks full observational equivalence. The ID
// domain is small so patterns collide heavily (dense leaves, exercised
// promotion) and removals frequently empty leaves (exercised demolition of
// leaves, sub entries, and counters).
func TestPackedStoreEquivalence(t *testing.T) {
	const (
		steps    = 6000
		maxID    = dict.ID(6)
		checkGap = 500
	)
	rng := rand.New(rand.NewSource(7))
	s := New()
	ref := newRefStore()
	randID := func() dict.ID { return dict.ID(rng.Intn(int(maxID)) + 1) }
	for step := 0; step < steps; step++ {
		x := Triple{randID(), randID(), randID()}
		switch rng.Intn(3) {
		case 0, 1: // biased toward Add so the store actually fills up
			if got, want := s.Add(x), ref.Add(x); got != want {
				t.Fatalf("step %d: Add(%v) = %v, want %v", step, x, got, want)
			}
		case 2:
			if got, want := s.Remove(x), ref.Remove(x); got != want {
				t.Fatalf("step %d: Remove(%v) = %v, want %v", step, x, got, want)
			}
		}
		if got, want := s.Contains(x), ref.Contains(x); got != want {
			t.Fatalf("step %d: Contains(%v) = %v, want %v", step, x, got, want)
		}
		if step%checkGap == checkGap-1 {
			checkEquivalent(t, step, s, ref, maxID)
		}
	}
	checkEquivalent(t, steps, s, ref, maxID)

	// Predicates/Objects agree with the reference at the end state.
	ps := s.Predicates()
	wantPs := ref.Predicates()
	if len(ps) != len(wantPs) {
		t.Fatalf("Predicates = %v, want %d distinct", ps, len(wantPs))
	}
	for _, p := range ps {
		if !wantPs[p] {
			t.Fatalf("Predicates contains %d, not in reference", p)
		}
		os := s.Objects(p)
		wantOs := ref.Objects(p)
		if len(os) != len(wantOs) {
			t.Fatalf("Objects(%d) = %v, want %d distinct", p, os, len(wantOs))
		}
		for _, o := range os {
			if !wantOs[o] {
				t.Fatalf("Objects(%d) contains %d, not in reference", p, o)
			}
		}
	}

	// Drain everything through Remove (the DRed overdeletion access pattern)
	// and require the store to come back to a clean empty state.
	for x := range ref.set {
		if !s.Remove(x) {
			t.Fatalf("drain: Remove(%v) = false, want true", x)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("drained store Len = %d, want 0", s.Len())
	}
	if n := s.spo.leaves() + s.pos.leaves() + s.osp.leaves(); n != 0 {
		t.Fatalf("drained store retains %d leaves", n)
	}
	if n := s.spo.as.len() + s.pos.as.len() + s.osp.as.len(); n != 0 {
		t.Fatalf("drained store retains %d index entries", n)
	}
}

// TestLeafPromotion pushes one (s,p) leaf far past promoteAt and checks the
// promoted representation behaves identically, including shrinking back
// through Remove.
func TestLeafPromotion(t *testing.T) {
	s := New()
	const n = 4 * promoteAt
	for o := dict.ID(1); o <= n; o++ {
		if !s.Add(Triple{1, 2, o}) {
			t.Fatalf("Add o=%d not new", o)
		}
	}
	if got := s.Count(Triple{1, 2, 0}); got != n {
		t.Fatalf("Count(s,p,?) = %d, want %d", got, n)
	}
	l := s.spo.leaf(1, 2)
	if l == nil || l.set == nil {
		t.Fatalf("leaf with %d elements not promoted to set", n)
	}
	for o := dict.ID(1); o <= n; o++ {
		if !s.Contains(Triple{1, 2, o}) {
			t.Fatalf("Contains o=%d false after promotion", o)
		}
	}
	// Remove odd objects; evens must survive.
	for o := dict.ID(1); o <= n; o += 2 {
		if !s.Remove(Triple{1, 2, o}) {
			t.Fatalf("Remove o=%d failed", o)
		}
	}
	if got := s.Count(Triple{1, 2, 0}); got != n/2 {
		t.Fatalf("Count after removals = %d, want %d", got, n/2)
	}
	for o := dict.ID(1); o <= n; o++ {
		want := o%2 == 0
		if got := s.Contains(Triple{1, 2, o}); got != want {
			t.Fatalf("Contains o=%d = %v, want %v", o, got, want)
		}
	}
}

// TestAddBatch checks the bulk-load path: AddBatch reports the number of
// new triples and stores each of them once.
func TestAddBatch(t *testing.T) {
	s := New()
	batch := []Triple{{1, 2, 3}, {1, 2, 4}, {2, 2, 3}, {1, 2, 3}} // one dup
	if got := s.AddBatch(batch); got != 3 {
		t.Fatalf("AddBatch = %d, want 3", got)
	}
	if s.Len() != 3 || !s.Contains(Triple{1, 2, 4}) {
		t.Fatalf("AddBatch lost data: Len=%d", s.Len())
	}
}
