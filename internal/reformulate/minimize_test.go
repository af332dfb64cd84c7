package reformulate

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func tIRI(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }

func mkUCQ(q *sparql.Query, branches ...Branch) *UCQ {
	return &UCQ{Query: q, Branches: branches}
}

func TestMinimizeDropsSubsumedBranch(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	general := Branch{Patterns: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f1")),
	}}
	specific := Branch{Patterns: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), tIRI("p"), tIRI("b")),
	}}
	min := mkUCQ(q, general, specific).Minimize()
	if min.Size() != 1 {
		t.Fatalf("size = %d, want 1 (specific branch subsumed): %v", min.Size(), min.Branches)
	}
	if min.Branches[0].Patterns[0].O != rdf.NewVar("_f1") {
		t.Error("kept the wrong branch")
	}
}

func TestMinimizeKeepsIncomparableBranches(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	b1 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("C"))}}
	b2 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("D"))}}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 2 {
		t.Errorf("incomparable branches pruned: %d", min.Size())
	}
}

func TestMinimizeEquivalentBranchesKeepOne(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	// Same shape, different fresh-variable names: mutually subsuming.
	b1 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f1"))}}
	b2 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f2"))}}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 1 {
		t.Errorf("equivalent branches: size = %d, want 1", min.Size())
	}
}

func TestMinimizeRespectsNamedVariables(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y }`)
	// (x p y) does NOT subsume (x p x): y is a named variable and must map
	// to itself.
	b1 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("y"))}}
	b2 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("x"))}}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 2 {
		t.Errorf("named-variable branches pruned: size = %d, want 2", min.Size())
	}
}

func TestMinimizeRespectsFixedBindings(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x ?c WHERE { ?x a ?c }`)
	b1 := Branch{
		Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("C"))},
		Fixed:    map[string]rdf.Term{"c": tIRI("C")},
	}
	b2 := Branch{
		Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("C"))},
		Fixed:    map[string]rdf.Term{"c": tIRI("D")},
	}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 2 {
		t.Errorf("branches with different Fixed pruned: size = %d, want 2", min.Size())
	}
	// Identical Fixed: prune.
	b3 := b1
	min = mkUCQ(q, b1, b3).Minimize()
	if min.Size() != 1 {
		t.Errorf("identical branches kept: size = %d, want 1", min.Size())
	}
}

func TestMinimizeMultiPatternSubsumption(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	// {(x p _f1)} subsumes {(x p _f2) . (x q d)} — the extra conjunct only
	// restricts.
	small := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f1"))}}
	big := Branch{Patterns: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f2")),
		rdf.T(rdf.NewVar("x"), tIRI("q"), tIRI("d")),
	}}
	min := mkUCQ(q, big, small).Minimize()
	if min.Size() != 1 {
		t.Fatalf("size = %d, want 1", min.Size())
	}
	if len(min.Branches[0].Patterns) != 1 {
		t.Error("kept the subsumed (larger) branch")
	}
}

// TestMinimizePreservesAnswers is the semantic guarantee: on the standard
// fixture, the minimized union returns exactly the same answers as the full
// union for every workload query.
func TestMinimizePreservesAnswers(t *testing.T) {
	k := universityKB(t)
	queries := []string{
		prefix + "SELECT ?x WHERE { ?x a ex:Person }",
		prefix + "SELECT ?x ?y WHERE { ?x ex:knows ?y }",
		prefix + "SELECT ?x ?c WHERE { ?x a ?c }",
		prefix + "SELECT ?x WHERE { ?x a ex:Person . ?x ex:knows ?y }",
	}
	for _, qtext := range queries {
		q := sparql.MustParse(qtext)
		ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		min := ucq.Minimize()
		if min.Size() > ucq.Size() {
			t.Errorf("%s: minimization grew the union", qtext)
		}
		fullRows := rowsToStrings(evalUCQ(t, ucq, k.st, k.d, 0), k.d)
		minRows := rowsToStrings(evalUCQ(t, min, k.st, k.d, 0), k.d)
		if len(fullRows) != len(minRows) {
			t.Fatalf("%s: minimization changed answers (%d vs %d)", qtext, len(fullRows), len(minRows))
		}
		for i := range fullRows {
			if fullRows[i] != minRows[i] {
				t.Fatalf("%s: answers differ after minimization", qtext)
			}
		}
	}
}
