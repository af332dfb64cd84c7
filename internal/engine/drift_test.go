package engine

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestPreparedReplanOnSizeDrift pins the stale-statistics trigger: a
// prepared plan is kept while the source stays within replanDrift× of the
// size it was planned against, and recomputed — picking up the new
// selectivities — as soon as it drifts past it, all without any dictionary
// growth (the orthogonal invalidation path).
func TestPreparedReplanOnSizeDrift(t *testing.T) {
	d := dict.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	knows, likes := d.Encode(iri("knows")), d.Encode(iri("likes"))
	// Coin every subject/object ID up front so later inserts cannot bump the
	// dictionary version.
	ids := make([]dict.ID, 400)
	for i := range ids {
		ids[i] = d.Encode(iri("n" + string(rune('a'+i%26)) + string(rune('0'+i/26))))
	}
	st := store.New()
	// knows is rare (2 triples), likes is common (40): the greedy planner
	// must start with knows.
	for i := 0; i < 2; i++ {
		st.Add(store.Triple{S: ids[i], P: knows, O: ids[i+1]})
	}
	for i := 0; i < 40; i++ {
		st.Add(store.Triple{S: ids[i], P: likes, O: ids[i+1]})
	}

	patterns := []rdf.Triple{
		rdf.T(rdf.NewVar("x"), iri("knows"), rdf.NewVar("y")),
		rdf.T(rdf.NewVar("x"), iri("likes"), rdf.NewVar("y")),
	}
	p, err := Prepare(st, patterns, d)
	if err != nil {
		t.Fatal(err)
	}
	planFirst := func() int { return p.Plan()[0].PatternIndex }
	if got := planFirst(); got != 0 {
		t.Fatalf("initial plan starts with pattern %d, want 0 (knows)", got)
	}
	size0 := p.planSize
	if size0 != st.Len() {
		t.Fatalf("planSize = %d, want %d", size0, st.Len())
	}

	// Small drift (< 2x): the plan must be left alone.
	for i := 40; i < 50; i++ {
		st.Add(store.Triple{S: ids[i], P: likes, O: ids[i+1]})
	}
	p.EvalDistinct(p.Vars(), 0)
	if p.planSize != size0 {
		t.Fatalf("replanned below the drift threshold (planSize %d -> %d)", size0, p.planSize)
	}

	// Push past 2x by flooding knows triples: statistics now say likes is
	// the rare pattern, so the refreshed plan must start with it.
	for i := 0; i < 350; i++ {
		st.Add(store.Triple{S: ids[i], P: knows, O: ids[(i+7)%400]})
	}
	if st.Len() <= replanDrift*size0 {
		t.Fatalf("test setup: store grew to %d, need > %d", st.Len(), replanDrift*size0)
	}
	p.EvalDistinct(p.Vars(), 0)
	if p.planSize == size0 {
		t.Fatal("plan statistics not refreshed after >2x growth")
	}
	if got := planFirst(); got != 1 {
		t.Fatalf("post-drift plan starts with pattern %d, want 1 (likes)", got)
	}

	// Shrink drift: deleting most of the store re-triggers too.
	sizeBig := p.planSize
	var toRemove []store.Triple
	st.ForEachMatch(store.Triple{P: knows}, func(tr store.Triple) bool {
		toRemove = append(toRemove, tr)
		return true
	})
	for _, tr := range toRemove {
		st.Remove(tr)
	}
	p.EvalDistinct(p.Vars(), 0)
	if p.planSize == sizeBig {
		t.Fatal("plan statistics not refreshed after >2x shrink")
	}
}

// plainSource hides a store's sorted capability, leaving only the basic
// Source surface.
type plainSource struct{ st *store.Store }

func (p plainSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	p.st.ForEachMatch(pat, fn)
}
func (p plainSource) Count(pat store.Triple) int { return p.st.Count(pat) }

// TestPreparedRebindLosesSortedSource: rebinding from a SortedSource to a
// plain Source must rebuild the step table — a plan with merge-intersection
// groups would otherwise dereference the nil sorted source on the next
// evaluation.
func TestPreparedRebindLosesSortedSource(t *testing.T) {
	d := dict.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	p1, p2 := d.Encode(iri("p1")), d.Encode(iri("p2"))
	a := d.Encode(iri("a"))
	st := store.New()
	for o := 1; o <= 40; o++ {
		st.Add(store.Triple{S: a, P: p1, O: dict.ID(100 + o)})
		if o%2 == 0 {
			st.Add(store.Triple{S: a, P: p2, O: dict.ID(100 + o)})
		}
	}
	// Two patterns constraining the same fresh variable with all else bound:
	// the merge-group shape.
	patterns := []rdf.Triple{
		rdf.T(iri("a"), iri("p1"), rdf.NewVar("x")),
		rdf.T(iri("a"), iri("p2"), rdf.NewVar("x")),
	}
	prep, err := Prepare(st, patterns, d)
	if err != nil {
		t.Fatal(err)
	}
	want := len(prep.EvalDistinct(prep.Vars(), 0).Rows)
	if want != 20 {
		t.Fatalf("sorted eval: %d rows, want 20", want)
	}
	prep.Rebind(plainSource{st})
	if got := len(prep.EvalDistinct(prep.Vars(), 0).Rows); got != want { // must not panic, same answers
		t.Fatalf("plain-source eval after rebind: %d rows, want %d", got, want)
	}
	prep.Rebind(st.Snapshot())
	if got := len(prep.EvalDistinct(prep.Vars(), 0).Rows); got != want {
		t.Fatalf("re-sorted eval after rebind: %d rows, want %d", got, want)
	}
}

// TestPreparedRebind: swapping sources keeps the compiled query but answers
// from the new source — including across store → snapshot rebinds, the
// serving path's shape — and the no-op rebind keeps the same plan.
func TestPreparedRebind(t *testing.T) {
	d := dict.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	p1 := d.Encode(iri("p"))
	a, b, c := d.Encode(iri("a")), d.Encode(iri("b")), d.Encode(iri("c"))

	st := store.New()
	st.Add(store.Triple{S: a, P: p1, O: b})

	prep, err := Prepare(st, []rdf.Triple{rdf.T(rdf.NewVar("x"), iri("p"), rdf.NewVar("y"))}, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prep.EvalDistinct(prep.Vars(), 0).Rows); got != 1 {
		t.Fatalf("initial eval: %d rows, want 1", got)
	}

	snap := st.Snapshot()
	st.Add(store.Triple{S: b, P: p1, O: c})

	prep.Rebind(snap)
	if got := len(prep.EvalDistinct(prep.Vars(), 0).Rows); got != 1 {
		t.Fatalf("snapshot-bound eval: %d rows, want 1 (snapshot predates second add)", got)
	}
	if prep.ss == nil {
		t.Fatal("snapshot rebind lost the sorted-source capability")
	}

	prep.Rebind(st.Snapshot())
	if got := len(prep.EvalDistinct(prep.Vars(), 0).Rows); got != 2 {
		t.Fatalf("fresh-snapshot eval: %d rows, want 2", got)
	}
}
