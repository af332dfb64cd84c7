package engine

import (
	"fmt"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// testKB builds a small social graph:
//
//	alice knows bob, bob knows carol, alice knows carol,
//	alice type Person, bob type Person, carol type Student,
//	alice name "Alice".
type testKB struct {
	d  *dict.Dict
	st *store.Store
}

func newTestKB(t *testing.T) *testKB {
	t.Helper()
	kb := &testKB{d: dict.New(), st: store.New()}
	add := func(s, p, o rdf.Term) {
		kb.st.Add(store.Triple{S: kb.d.Encode(s), P: kb.d.Encode(p), O: kb.d.Encode(o)})
	}
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	add(iri("alice"), iri("knows"), iri("bob"))
	add(iri("bob"), iri("knows"), iri("carol"))
	add(iri("alice"), iri("knows"), iri("carol"))
	add(iri("alice"), rdf.Type, iri("Person"))
	add(iri("bob"), rdf.Type, iri("Person"))
	add(iri("carol"), rdf.Type, iri("Student"))
	add(iri("alice"), iri("name"), rdf.NewLiteral("Alice"))
	return kb
}

// eval prepares the query text against the KB and runs it once, projected
// onto project (all pattern variables when nil).
func (kb *testKB) eval(t *testing.T, qs string, project []string, limit int) *Result {
	t.Helper()
	q := sparql.MustParse(qs)
	p, err := Prepare(kb.st, q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	if project == nil {
		project = p.Vars()
	}
	return p.EvalDistinct(project, limit)
}

// evalStrings evaluates the query text and returns sorted decoded rows as
// "|"-joined term strings.
func (kb *testKB) evalStrings(t *testing.T, qs string, project []string) []string {
	t.Helper()
	res := kb.eval(t, qs, project, 0).Sort()
	var out []string
	for _, row := range res.Decode(kb.d) {
		s := ""
		for i, term := range row {
			if i > 0 {
				s += "|"
			}
			s += term.String()
		}
		out = append(out, s)
	}
	return out
}

func TestEvalSinglePattern(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }`, []string{"x"})
	want := []string{"<http://ex.org/alice>", "<http://ex.org/bob>"}
	eqStrings(t, got, want)
}

func eqStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEvalJoin(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y a ex:Person }`, []string{"x", "y"})
	want := []string{"<http://ex.org/alice>|<http://ex.org/bob>"}
	eqStrings(t, got, want)
}

func TestEvalTriangleJoin(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?a ?b ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c . ?a ex:knows ?c }`, []string{"a", "b", "c"})
	want := []string{"<http://ex.org/alice>|<http://ex.org/bob>|<http://ex.org/carol>"}
	eqStrings(t, got, want)
}

func TestEvalVariablePredicate(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?p WHERE { ex:alice ?p ex:bob }`, []string{"p"})
	want := []string{"<http://ex.org/knows>"}
	eqStrings(t, got, want)
}

func TestEvalRepeatedVariable(t *testing.T) {
	kb := newTestKB(t)
	// Add a self-loop to exercise repeated-variable consistency.
	self := kb.d.Encode(rdf.NewIRI("http://ex.org/dave"))
	knows := kb.d.Encode(rdf.NewIRI("http://ex.org/knows"))
	kb.st.Add(store.Triple{S: self, P: knows, O: self})
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?x WHERE { ?x ex:knows ?x }`, []string{"x"})
	want := []string{"<http://ex.org/dave>"}
	eqStrings(t, got, want)
}

func TestEvalLiteralObject(t *testing.T) {
	kb := newTestKB(t)
	got := kb.evalStrings(t, `PREFIX ex: <http://ex.org/>
SELECT ?x WHERE { ?x ex:name "Alice" }`, []string{"x"})
	eqStrings(t, got, []string{"<http://ex.org/alice>"})
}

func TestEvalUnknownConstantIsEmptyNotError(t *testing.T) {
	kb := newTestKB(t)
	res := kb.eval(t, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Unicorn }`, nil, 0)
	if len(res.Rows) != 0 {
		t.Errorf("got %d rows, want 0", len(res.Rows))
	}
}

func TestEvalEmptyBGPIsError(t *testing.T) {
	kb := newTestKB(t)
	if _, err := Prepare(kb.st, nil, kb.d); err == nil {
		t.Error("empty BGP should be a Prepare error")
	}
}

func TestBagSemanticsAndDistinct(t *testing.T) {
	kb := newTestKB(t)
	// ?x knows ?y has three matches; projected onto ?x, alice appears for
	// both bob and carol and is kept once.
	const qs = `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:knows ?y }`
	if got := len(kb.eval(t, qs, nil, 0).Rows); got != 3 {
		t.Errorf("full-width rows = %d, want 3", got)
	}
	if got := len(kb.eval(t, qs, []string{"x"}, 0).Rows); got != 2 {
		t.Errorf("distinct rows = %d, want 2", got)
	}
}

func TestLimit(t *testing.T) {
	kb := newTestKB(t)
	const qs = `SELECT * WHERE { ?s ?p ?o }`
	if got := len(kb.eval(t, qs, nil, 2).Rows); got != 2 {
		t.Errorf("limit 2 rows = %d", got)
	}
	if got := len(kb.eval(t, qs, nil, 0).Rows); got != kb.st.Len() {
		t.Errorf("limit 0 should keep all rows, got %d", got)
	}
	if got := len(kb.eval(t, qs, nil, 1000).Rows); got != kb.st.Len() {
		t.Errorf("limit beyond size should keep all rows, got %d", got)
	}
}

func TestProjectMissingVarGivesNoneColumn(t *testing.T) {
	kb := newTestKB(t)
	res := kb.eval(t, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:Person }`, []string{"x", "ghost"}, 0)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] != dict.None {
			t.Errorf("ghost column should be None, got %d", row[1])
		}
	}
}

func TestPlanPrefersSelectivePatterns(t *testing.T) {
	kb := newTestKB(t)
	// Pattern 0 is a full scan (?s ?p ?o), pattern 1 is selective
	// (alice name ?n): the plan must start with pattern 1.
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?s ?p ?o . ex:alice ex:name ?o }`)
	p, err := Prepare(kb.st, q.Patterns, kb.d)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan()
	if plan[0].PatternIndex != 1 {
		t.Errorf("plan starts with pattern %d, want 1 (selective first): %+v", plan[0].PatternIndex, plan)
	}
	if plan[0].EstimatedCost > plan[1].EstimatedCost {
		t.Errorf("plan costs not increasing: %+v", plan)
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	// Disconnected patterns must still produce the cross product.
	kb := newTestKB(t)
	res := kb.eval(t, `PREFIX ex: <http://ex.org/>
SELECT ?x ?y WHERE { ?x a ex:Person . ?y a ex:Student }`, nil, 0)
	if len(res.Rows) != 2 { // 2 persons × 1 student
		t.Errorf("cartesian rows = %d, want 2", len(res.Rows))
	}
}

func TestDecode(t *testing.T) {
	kb := newTestKB(t)
	res := kb.eval(t, `PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ex:alice ex:name ?n }`, nil, 0)
	rows := res.Decode(kb.d)
	if len(rows) != 1 || rows[0][0] != rdf.NewLiteral("Alice") {
		t.Errorf("Decode = %v", rows)
	}
}

// countingSource is a plain Source that counts the triples it hands to the
// evaluator, to observe how far a join ran.
type countingSource struct {
	st        *store.Store
	delivered int
}

func (c *countingSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	c.st.ForEachMatch(pat, func(t store.Triple) bool {
		c.delivered++
		return fn(t)
	})
}

func (c *countingSource) Count(pat store.Triple) int { return c.st.Count(pat) }

// TestLimitStopsTheJoin: an ASK (empty projection) stops at the first
// match and a limited SELECT after its limit, rather than enumerating every
// match and truncating afterwards.
func TestLimitStopsTheJoin(t *testing.T) {
	d := dict.New()
	st := store.New()
	p := d.Encode(rdf.NewIRI("http://ex.org/p"))
	for i := 0; i < 50; i++ {
		st.Add(store.Triple{S: d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex.org/s%d", i))), P: p, O: p})
	}
	src := &countingSource{st: st}
	pats := []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.NewIRI("http://ex.org/p"), rdf.NewVar("y"))}
	prep, err := Prepare(src, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		proj          []string
		limit         int
		rows, visited int
	}{
		{nil, 0, 1, 1},                  // ASK: any match answers it
		{[]string{"x"}, 1, 1, 1},        // LIMIT 1
		{[]string{"x"}, 5, 5, 5},        // LIMIT 5
		{[]string{"y"}, 5, 1, 50},       // one distinct row: runs to the end
		{[]string{"x", "y"}, 0, 50, 50}, // no limit
	}
	for _, c := range cases {
		src.delivered = 0
		res := prep.EvalDistinct(c.proj, c.limit)
		if len(res.Rows) != c.rows || src.delivered != c.visited {
			t.Errorf("proj %v limit %d: %d rows after %d matches, want %d after %d",
				c.proj, c.limit, len(res.Rows), src.delivered, c.rows, c.visited)
		}
	}
}
