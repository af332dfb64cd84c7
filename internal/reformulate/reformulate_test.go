package reformulate

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/store"
)

// kb bundles everything a reformulation test needs: a dictionary, a store
// whose schema component is closed, the closed schema, and the saturation
// for cross-checking q_ref(G) = q(G∞).
type kb struct {
	d   *dict.Dict
	voc schema.Vocab
	st  *store.Store // G, with closed schema
	sch *schema.Schema
	sat *store.Store // G∞
}

func buildKB(t *testing.T, turtleish []string) *kb {
	t.Helper()
	k := &kb{d: dict.New(), st: store.New()}
	k.voc = schema.NewVocab(k.d)
	for _, line := range turtleish {
		parts := strings.Fields(line)
		if len(parts) != 3 {
			t.Fatalf("bad fixture line %q", line)
		}
		k.st.Add(store.Triple{S: k.term(parts[0]), P: k.term(parts[1]), O: k.term(parts[2])})
	}
	// Close the schema inside G (the standing assumption of [12]).
	k.sch = schema.Extract(k.st, k.voc)
	for _, tr := range k.sch.ClosureTriples() {
		k.st.Add(tr)
	}
	k.sch = schema.Extract(k.st, k.voc)
	k.sat, _ = reason.Saturate(k.st, reason.RDFSRules(k.voc))
	return k
}

func (k *kb) term(s string) dict.ID {
	switch s {
	case "a":
		return k.voc.Type
	case "sco":
		return k.voc.SubClassOf
	case "spo":
		return k.voc.SubPropertyOf
	case "dom":
		return k.voc.Domain
	case "rng":
		return k.voc.Range
	}
	return k.d.Encode(rdf.NewIRI("http://ex.org/" + s))
}

// answers evaluates the query text both ways and returns the two sorted
// answer sets as string slices.
func (k *kb) answers(t *testing.T, qtext string) (viaSat, viaRef []string) {
	t.Helper()
	q := sparql.MustParse(qtext)
	proj := q.Projection()

	sat, err := engine.Prepare(k.sat, q.Patterns, k.d)
	if err != nil {
		t.Fatal(err)
	}
	viaSat = rowsToStrings(sat.EvalDistinct(proj, 0), k.d)

	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaRef = rowsToStrings(evalUCQ(t, ucq, k.st, k.d, 0), k.d)
	return viaSat, viaRef
}

// evalUCQ prepares the union against src and evaluates it once.
func evalUCQ(t *testing.T, u *UCQ, src engine.Source, d *dict.Dict, limit int) *engine.Result {
	t.Helper()
	pu, err := u.Prepare(src, d)
	if err != nil {
		t.Fatal(err)
	}
	return pu.Evaluate(limit)
}

func rowsToStrings(r *engine.Result, d *dict.Dict) []string {
	var out []string
	for _, row := range r.Decode(d) {
		parts := make([]string, len(row))
		for i, term := range row {
			parts[i] = term.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func requireEqual(t *testing.T, qtext string, viaSat, viaRef []string) {
	t.Helper()
	if len(viaSat) != len(viaRef) {
		t.Fatalf("%s:\nsaturation: %v\nreformulation: %v", qtext, viaSat, viaRef)
	}
	for i := range viaSat {
		if viaSat[i] != viaRef[i] {
			t.Fatalf("%s:\nsaturation: %v\nreformulation: %v", qtext, viaSat, viaRef)
		}
	}
}

// universityKB is the shared fixture: a little university ontology with a
// class hierarchy, a property hierarchy, and domain/range constraints.
func universityKB(t *testing.T) *kb {
	return buildKB(t, []string{
		"GradStudent sco Student",
		"Student sco Person",
		"Professor sco Person",
		"advises spo knows",
		"knows dom Person",
		"knows rng Person",
		"advises dom Professor",
		"advises rng GradStudent",
		"smith a Professor",
		"jones advises lee",
		"kim a GradStudent",
		"lee knows kim",
		"pat a Person",
	})
}

const prefix = "PREFIX ex: <http://ex.org/>\n"

func TestReformulationEqualsSaturationOnFixture(t *testing.T) {
	k := universityKB(t)
	queries := []string{
		// Subclass reasoning: all persons (explicit, via subclass, via
		// domain/range of knows/advises).
		prefix + "SELECT ?x WHERE { ?x a ex:Person }",
		// Mid-hierarchy class.
		prefix + "SELECT ?x WHERE { ?x a ex:Student }",
		// Subproperty reasoning.
		prefix + "SELECT ?x ?y WHERE { ?x ex:knows ?y }",
		// Join mixing both.
		prefix + "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y a ex:Person }",
		// No reasoning needed.
		prefix + "SELECT ?x WHERE { ?x ex:advises ?y }",
		// Class variable.
		prefix + "SELECT ?x ?c WHERE { ?x a ?c }",
		// Property variable.
		prefix + "SELECT ?p WHERE { ex:jones ?p ex:lee }",
		// Constant subject.
		prefix + "SELECT ?c WHERE { ex:kim a ?c }",
		// Schema pattern (closed schema answers directly).
		prefix + "SELECT ?c WHERE { ?c <http://www.w3.org/2000/01/rdf-schema#subClassOf> ex:Person }",
	}
	for _, qtext := range queries {
		viaSat, viaRef := k.answers(t, qtext)
		requireEqual(t, qtext, viaSat, viaRef)
		if len(viaSat) == 0 {
			t.Errorf("query %s returned no answers — fixture too weak to be meaningful", qtext)
		}
	}
}

func TestReformulationFindsImplicitOnlyAnswers(t *testing.T) {
	// jones advises lee: jones must be found as a Professor (domain) and
	// lee as a GradStudent (range) without any explicit type triple.
	k := universityKB(t)
	_, viaRef := k.answers(t, prefix+"SELECT ?x WHERE { ?x a ex:Professor }")
	want := []string{"<http://ex.org/jones>", "<http://ex.org/smith>"}
	requireEqual(t, "professors", want, viaRef)

	_, viaRefGrad := k.answers(t, prefix+"SELECT ?x WHERE { ?x a ex:GradStudent }")
	wantGrad := []string{"<http://ex.org/kim>", "<http://ex.org/lee>"}
	requireEqual(t, "grad students", wantGrad, viaRefGrad)
}

func TestUnionShapeForTypeQuery(t *testing.T) {
	k := universityKB(t)
	q := sparql.MustParse(prefix + "SELECT ?x WHERE { ?x a ex:Person }")
	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expected branches: Person, Student, GradStudent, Professor (classes),
	// plus domain expansions (knows, advises) and range expansions (knows,
	// advises) = 8.
	if ucq.Size() != 8 {
		t.Errorf("union size = %d, want 8\n%s", ucq.Size(), ucq)
	}
	// The rendering must show a union and the expansion properties.
	text := ucq.String()
	for _, want := range []string{"UNION", "knows", "advises", "GradStudent"} {
		if !strings.Contains(text, want) {
			t.Errorf("UCQ rendering missing %q:\n%s", want, text)
		}
	}
}

func TestSubPropertyOnlyExpansion(t *testing.T) {
	k := universityKB(t)
	q := sparql.MustParse(prefix + "SELECT ?x ?y WHERE { ?x ex:knows ?y }")
	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ucq.Size() != 2 { // knows ∪ advises
		t.Errorf("union size = %d, want 2\n%s", ucq.Size(), ucq)
	}
}

func TestNoReasoningQueryStaysSingleton(t *testing.T) {
	k := universityKB(t)
	q := sparql.MustParse(prefix + "SELECT ?x ?y WHERE { ?x ex:advises ?y }")
	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ucq.Size() != 1 {
		t.Errorf("query without reasoning should stay a single BGP, got %d", ucq.Size())
	}
}

func TestFixedBindingsEmitted(t *testing.T) {
	// For a class-variable query, the candidate instantiation must emit the
	// class constant in the ?c column.
	k := universityKB(t)
	viaSat, viaRef := k.answers(t, prefix+"SELECT ?x ?c WHERE { ?x a ?c }")
	requireEqual(t, "class variable query", viaSat, viaRef)
	// And kim must be reported as GradStudent, Student AND Person.
	count := 0
	for _, row := range viaRef {
		if strings.Contains(row, "kim") {
			count++
		}
	}
	if count != 3 {
		t.Errorf("kim should appear with 3 classes, got %d: %v", count, viaRef)
	}
}

func TestMaxBranchesEnforced(t *testing.T) {
	k := universityKB(t)
	q := sparql.MustParse(prefix + "SELECT ?x WHERE { ?x a ex:Person }")
	_, err := Reformulate(q, k.sch, k.d, k.st, Options{MaxBranches: 3})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}

func TestUnknownClassReformulatesToItself(t *testing.T) {
	k := universityKB(t)
	q := sparql.MustParse(prefix + "SELECT ?x WHERE { ?x a ex:Dragon }")
	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ucq.Size() != 1 {
		t.Errorf("unknown class should not expand, got %d branches", ucq.Size())
	}
	if res := evalUCQ(t, ucq, k.st, k.d, 0); len(res.Rows) != 0 {
		t.Errorf("unknown class should have no answers")
	}
}

func TestDeepHierarchyExpansion(t *testing.T) {
	lines := []string{"x0 a C0"}
	for i := 0; i < 6; i++ {
		lines = append(lines, strings.ReplaceAll(strings.ReplaceAll("Ci sco Cj", "Ci", className(i)), "Cj", className(i+1)))
	}
	k := buildKB(t, lines)
	q := sparql.MustParse(prefix + "SELECT ?x WHERE { ?x a ex:C6 }")
	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ucq.Size() != 7 { // C0..C6
		t.Errorf("union size = %d, want 7", ucq.Size())
	}
	viaSat, viaRef := k.answers(t, prefix+"SELECT ?x WHERE { ?x a ex:C6 }")
	requireEqual(t, "deep hierarchy", viaSat, viaRef)
}

func className(i int) string { return "C" + string(rune('0'+i)) }

func TestBlankNodeInQueryTreatedAsVariable(t *testing.T) {
	k := universityKB(t)
	// _:b acts as an existential variable: who advises anyone?
	viaSat, viaRef := k.answers(t, prefix+"SELECT ?x WHERE { ?x ex:advises _:b }")
	requireEqual(t, "blank node query", viaSat, viaRef)
}

func TestReformulateValidatesQuery(t *testing.T) {
	k := universityKB(t)
	bad := &sparql.Query{} // empty pattern
	if _, err := Reformulate(bad, k.sch, k.d, k.st, Options{}); err == nil {
		t.Error("empty query should fail validation")
	}
}

// scanCounter is a Source that counts the pattern scans the evaluator
// starts, to observe which union branches ran.
type scanCounter struct {
	st    *store.Store
	scans int
}

func (c *scanCounter) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	c.scans++
	c.st.ForEachMatch(pat, fn)
}

func (c *scanCounter) Count(pat store.Triple) int { return c.st.Count(pat) }

// TestUnionAskStopsAtFirstAnsweringBranch: an ASK over a union stops in the
// first branch that has an answer and never scans the later branches, while
// the full evaluation scans every one of them.
func TestUnionAskStopsAtFirstAnsweringBranch(t *testing.T) {
	k := universityKB(t)
	q := sparql.MustParse(prefix + "ASK { ?x a ex:Person }")
	ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ucq.Size() < 2 {
		t.Fatalf("want a union, got %d branches", ucq.Size())
	}
	src := &scanCounter{st: k.st}
	// The first branch is the query itself, answered by "pat a Person".
	if res := evalUCQ(t, ucq, src, k.d, 1); len(res.Rows) != 1 || src.scans != 1 {
		t.Errorf("ASK: %d rows after %d scans, want 1 row after 1 scan", len(res.Rows), src.scans)
	}
	src.scans = 0
	if res := evalUCQ(t, ucq, src, k.d, 0); len(res.Rows) < 2 || src.scans != ucq.Size() {
		t.Errorf("full run: %d rows after %d scans, want several after %d", len(res.Rows), src.scans, ucq.Size())
	}
}
