package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// bruteEval is the reference evaluator: a naive nested loop over the full
// triple list with term-level binding maps — no dictionary, no indexes, no
// planner — projected onto proj (every variable, in first-occurrence order,
// when nil) with duplicates removed. Prepared's merge joins, plan caching
// and fused distinct must agree with it exactly.
func bruteEval(triples []rdf.Triple, patterns []rdf.Triple, proj []string) [][]string {
	if proj == nil {
		seen := map[string]bool{}
		for _, p := range patterns {
			for _, t := range []rdf.Term{p.S, p.P, p.O} {
				if t.IsVar() && !seen[t.Value] {
					seen[t.Value] = true
					proj = append(proj, t.Value)
				}
			}
		}
	}
	var rows [][]string
	emitted := map[string]bool{}
	binding := map[string]rdf.Term{}
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(patterns) {
			row := make([]string, len(proj))
			for i, v := range proj {
				row[i] = binding[v].String()
			}
			if key := strings.Join(row, "|"); !emitted[key] {
				emitted[key] = true
				rows = append(rows, row)
			}
			return
		}
		pat := patterns[depth]
		for _, t := range triples {
			var bound []string
			ok := true
			for _, pr := range [][2]rdf.Term{{pat.S, t.S}, {pat.P, t.P}, {pat.O, t.O}} {
				pv, tv := pr[0], pr[1]
				if !pv.IsVar() {
					if pv != tv {
						ok = false
						break
					}
					continue
				}
				if have, isBound := binding[pv.Value]; isBound {
					if have != tv {
						ok = false
						break
					}
					continue
				}
				binding[pv.Value] = tv
				bound = append(bound, pv.Value)
			}
			if ok {
				rec(depth + 1)
			}
			for _, v := range bound {
				delete(binding, v)
			}
		}
	}
	rec(0)
	return rows
}

// canon renders rows as a sorted list for comparison.
func canon(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func decodeRows(t *testing.T, res *Result, d *dict.Dict) [][]string {
	t.Helper()
	var rows [][]string
	for _, row := range res.Decode(d) {
		sr := make([]string, len(row))
		for i, term := range row {
			sr[i] = term.String()
		}
		rows = append(rows, sr)
	}
	return rows
}

// genStarWorld builds a graph whose (p,o) leaves routinely exceed the
// promotion threshold (many subjects share each type/edge), so the merge
// joins run over promoted hash-set leaves with lazily-sorted snapshots.
func genStarWorld(rng *rand.Rand, n int) []rdf.Triple {
	iri := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", kind, i))
	}
	var ts []rdf.Triple
	seen := map[rdf.Triple]bool{} // the store has set semantics; keep the reference list duplicate-free
	add := func(tr rdf.Triple) {
		if !seen[tr] {
			seen[tr] = true
			ts = append(ts, tr)
		}
	}
	for i := 0; i < n; i++ {
		s := iri("node", i)
		// Every node gets a type from a tiny class pool: leaves of size ~n/3,
		// far past promoteAt for n ≥ 64.
		add(rdf.T(s, rdf.Type, iri("Class", rng.Intn(3))))
		for j := 0; j < 1+rng.Intn(3); j++ {
			add(rdf.T(s, iri("edge", rng.Intn(3)), iri("node", rng.Intn(n))))
		}
	}
	return ts
}

// genPatterns produces a random BGP over the star world's vocabulary,
// biased toward star shapes (shared subject variable, constant predicate
// and object) so merge groups actually form.
func genPatterns(rng *rand.Rand, n int) []rdf.Triple {
	iri := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", kind, i))
	}
	vars := []rdf.Term{rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")}
	var pats []rdf.Triple
	np := 1 + rng.Intn(3)
	for i := 0; i < np; i++ {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0: // star: type membership
			pats = append(pats, rdf.T(v, rdf.Type, iri("Class", rng.Intn(3))))
		case 1: // star: edge to constant
			pats = append(pats, rdf.T(v, iri("edge", rng.Intn(3)), iri("node", rng.Intn(n))))
		case 2: // chain: edge between two variables
			pats = append(pats, rdf.T(v, iri("edge", rng.Intn(3)), vars[rng.Intn(len(vars))]))
		case 3: // constant subject
			pats = append(pats, rdf.T(iri("node", rng.Intn(n)), iri("edge", rng.Intn(3)), v))
		}
	}
	return pats
}

// TestPreparedMatchesBruteForce cross-checks Prepared evaluation (merge
// joins, plan caching, fused distinct, limits) against the naive reference on
// randomized graphs and BGPs, then grows the graph — and the dictionary —
// and re-checks the same Prepared instances to exercise the dict-version
// invalidation path.
func TestPreparedMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(64)
		triples := genStarWorld(rng, n)

		d := dict.New()
		st := store.New()
		for _, tr := range triples {
			st.Add(store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)})
		}

		type preparedCase struct {
			pats []rdf.Triple
			p    *Prepared
		}
		var cases []preparedCase
		for qi := 0; qi < 8; qi++ {
			pats := genPatterns(rng, n)
			p, err := Prepare(st, pats, d)
			if err != nil {
				t.Fatalf("seed %d: Prepare: %v", seed, err)
			}
			cases = append(cases, preparedCase{pats, p})
		}

		check := func(stage string) {
			for ci, c := range cases {
				// Evaluate twice: the second run hits the fully-warm path
				// (cached plan, reused scratch, populated row hints).
				for round := 0; round < 2; round++ {
					got := canon(decodeRows(t, c.p.EvalDistinct(c.p.Vars(), 0), d))
					want := canon(bruteEval(triples, c.pats, nil))
					if len(got) != len(want) {
						t.Fatalf("seed %d %s case %d round %d: got %d rows, want %d\npatterns: %v",
							seed, stage, ci, round, len(got), len(want), c.pats)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s case %d round %d: row %d: got %q want %q",
								seed, stage, ci, round, i, got[i], want[i])
						}
					}
				}
				// A narrower projection (?x may not even occur) dedups
				// across the dropped columns.
				proj := []string{"x"}
				gotD := canon(decodeRows(t, c.p.EvalDistinct(proj, 0), d))
				wantD := canon(bruteEval(triples, c.pats, proj))
				if strings.Join(gotD, "\n") != strings.Join(wantD, "\n") {
					t.Fatalf("seed %d %s case %d: projected mismatch:\ngot  %v\nwant %v\npatterns: %v",
						seed, stage, ci, gotD, wantD, c.pats)
				}
				// A limit returns that many of the distinct rows.
				lim := c.p.EvalDistinct(proj, 2)
				limRows := canon(decodeRows(t, lim, d))
				if len(limRows) != min(2, len(wantD)) {
					t.Fatalf("seed %d %s case %d: limit 2 gave %d rows of %d", seed, stage, ci, len(limRows), len(wantD))
				}
				for _, r := range limRows {
					if !slices.Contains(wantD, r) {
						t.Fatalf("seed %d %s case %d: limited row %q not an answer", seed, stage, ci, r)
					}
				}
			}
		}
		check("initial")

		// Grow the graph with triples over fresh terms (new classes, new
		// nodes): the dictionary version moves, so every Prepared must
		// recompile — previously-unknown constants may now resolve — and the
		// new data must show up in the answers.
		growth := genStarWorld(rand.New(rand.NewSource(seed+1000)), 32)
		for i := range growth {
			// Rename to fresh IRIs so the dictionary genuinely grows.
			growth[i].S = rdf.NewIRI(growth[i].S.Value + "/v2")
			if growth[i].O.IsIRI() && strings.Contains(growth[i].O.Value, "node") {
				growth[i].O = rdf.NewIRI(growth[i].O.Value + "/v2")
			}
		}
		before := d.Version()
		for _, tr := range growth {
			st.Add(store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)})
			triples = append(triples, tr)
		}
		if d.Version() == before {
			t.Fatalf("seed %d: growth did not move the dictionary version", seed)
		}
		check("after-growth")
	}
}

// TestPreparedResolvesNewConstants pins the invalidation contract: a
// constant unknown at Prepare time makes the query empty, and becomes
// visible once the term is coined and asserted.
func TestPreparedResolvesNewConstants(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	st.Add(store.Triple{S: d.Encode(iri("a")), P: d.Encode(iri("p")), O: d.Encode(iri("b"))})

	pats := []rdf.Triple{rdf.T(rdf.NewVar("x"), iri("p"), iri("late"))}
	p, err := Prepare(st, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.EvalDistinct(p.Vars(), 0); len(got.Rows) != 0 {
		t.Fatalf("unknown constant: want empty, got %d rows", len(got.Rows))
	}
	st.Add(store.Triple{S: d.Encode(iri("a")), P: d.Encode(iri("p")), O: d.Encode(iri("late"))})
	if got := p.EvalDistinct(p.Vars(), 0); len(got.Rows) != 1 {
		t.Fatalf("after coining constant: want 1 row, got %d", len(got.Rows))
	}
}

// TestPreparedMergeGroupsForm sanity-checks that the star shape actually
// takes the merge-join path (guarding against silent fallback to nested
// loops after a refactor).
func TestPreparedMergeGroupsForm(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	enc := func(tr rdf.Triple) store.Triple {
		return store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)}
	}
	// 40 students, 25 of them take the course: both leaves promoted.
	for i := 0; i < 40; i++ {
		st.Add(enc(rdf.T(iri(fmt.Sprintf("s%d", i)), rdf.Type, iri("Student"))))
		if i < 25 {
			st.Add(enc(rdf.T(iri(fmt.Sprintf("s%d", i)), iri("takes"), iri("course0"))))
		}
	}
	pats := []rdf.Triple{
		rdf.T(rdf.NewVar("x"), rdf.Type, iri("Student")),
		rdf.T(rdf.NewVar("x"), iri("takes"), iri("course0")),
	}
	p, err := Prepare(st, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != 1 || p.steps[0].merge == nil || len(p.steps[0].merge) != 2 {
		t.Fatalf("expected one merge group of 2 patterns, got steps %+v", p.steps)
	}
	if got := p.EvalDistinct(p.Vars(), 0); len(got.Rows) != 25 {
		t.Fatalf("merge join: want 25 rows, got %d", len(got.Rows))
	}
}
