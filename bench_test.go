// Benchmarks regenerating the paper's figures, one family per artifact:
//
//	Figure 3 cost inputs — BenchmarkSaturate (one-time saturation cost),
//	    BenchmarkMaintain* (per-update maintenance), BenchmarkQuery*
//	    (per-query answering under each technique).
//	E4 — BenchmarkSaturate across scales.
//	E5 — BenchmarkQuery{Saturation,Reformulation,Backward}.
//	E6 — BenchmarkReformulate (rewriting time; union sizes are reported
//	    by cmd/rdfbench -experiment blowup).
//	E7 — BenchmarkMaintain* (DRed vs counting vs resaturation).
//
// cmd/rdfbench prints the paper-style tables; these benches give the same
// quantities under `go test -bench`.
package webreason_test

import (
	"strconv"
	"sync"
	"testing"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/lubm"
	"repro/internal/reason"
	"repro/internal/reformulate"
	"repro/internal/sparql"
)

// fixture is built once and shared by read-only benchmarks.
type fixture struct {
	kb   *core.KB
	sat  *core.Saturation
	ref  *core.Reformulation
	back *core.Backward
	qs   map[string]*sparql.Query
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
			panic(err)
		}
		f := &fixture{kb: kb, qs: map[string]*sparql.Query{}}
		f.sat = core.NewSaturation(kb)
		f.ref = core.NewReformulation(kb, reformulate.Options{})
		f.back = core.NewBackward(kb)
		for _, wq := range lubm.Queries() {
			f.qs[wq.Name] = wq.Parse()
		}
		fix = f
	})
	return fix
}

// BenchmarkSaturate measures the one-time saturation cost (Figure 3's
// fixed cost; E4) at two scales.
func BenchmarkSaturate(b *testing.B) {
	for _, depts := range []int{2, 6} {
		cfg := lubm.SmallConfig()
		cfg.DeptsPerUniv = depts
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("depts", depts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reason.Materialize(kb.Base(), kb.Rules())
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}

// benchQueries are representative of the workload's reasoning mix.
var benchQueries = []string{"Q1", "Q5", "Q6", "Q9", "Q12", "Q14"}

// BenchmarkQuerySaturation measures eval(G∞) per query in the repeated-query
// regime the paper's Figure 3 reasons about: the query is prepared once and
// the steady-state per-execution cost is measured — cached plan, merge
// joins, zero planning allocations (E5). BenchmarkQuerySaturationUnprepared
// gives the cold prepare-and-run figure for comparison.
func BenchmarkQuerySaturation(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			pq, err := f.sat.Prepare(f.qs[name])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Answer(); err != nil { // warm scratch + row hints
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pq.Answer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuerySaturationUnprepared measures the same queries through
// Saturation.Answer, which prepares (compile + plan) and runs the query on
// every call: the cold side of the prepared-query comparison.
func BenchmarkQuerySaturationUnprepared(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.sat.Answer(f.qs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuerySaturationAskProbe measures a cold ASK through
// Saturation.Ask: a constant-only single pattern, the shape of the
// read-your-writes probe that follows every durable write, prepared and run
// on each call.
func BenchmarkQuerySaturationAskProbe(b *testing.B) {
	f := getFixture(b)
	q := sparql.MustParse("ASK { <" + lubm.Entity("univ0/dept0/fullProf0").Value + "> a <" + lubm.Class("Person").Value + "> }")
	if ok, err := f.sat.Ask(q); err != nil || !ok {
		b.Fatalf("probe = %v, %v; want true", ok, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sat.Ask(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryReformulationPrepared measures steady-state reformulated
// answering with the rewriting and per-branch plans cached.
func BenchmarkQueryReformulationPrepared(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			pq, err := f.ref.Prepare(f.qs[name])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Answer(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pq.Answer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBackwardPrepared measures steady-state backward-chaining
// answering with the compiled plan cached.
func BenchmarkQueryBackwardPrepared(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			pq, err := f.back.Prepare(f.qs[name])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Answer(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pq.Answer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryReformulation measures a cold reformulated answer on G
// (Figure 3, E5): rewrite, prepare every branch of the union and run it,
// on every call.
func BenchmarkQueryReformulation(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.ref.Answer(f.qs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBackward measures a cold backward-chaining answer (E5):
// prepare against the inferred view and run, on every call.
func BenchmarkQueryBackward(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.back.Answer(f.qs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReformulate measures pure rewriting time and reports the union
// size (E6).
func BenchmarkReformulate(b *testing.B) {
	f := getFixture(b)
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var branches int
			for i := 0; i < b.N; i++ {
				ucq, err := f.ref.Reformulate(f.qs[name])
				if err != nil {
					b.Fatal(err)
				}
				branches = ucq.Size()
			}
			b.ReportMetric(float64(branches), "branches")
		})
	}
}

// maintenance benchmarks: each op is paired with its undo inside the timed
// loop, so the measured figure is (op + undo)/2 ≈ one maintenance step at
// steady state (Figure 3 maintenance costs; E7).

func BenchmarkMaintainInstanceDRed(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	mat := reason.Materialize(kb.Base(), kb.Rules())
	tr := kb.Encode(lubm.InstanceUpdates(1)[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Insert(tr)
		mat.Delete(tr)
	}
}

func BenchmarkMaintainInstanceCounting(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	cnt := reason.MaterializeCounting(kb.Base(), kb.Rules())
	tr := kb.Encode(lubm.InstanceUpdates(1)[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt.Insert(tr)
		cnt.Delete(tr)
	}
}

func BenchmarkMaintainSchemaDRed(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	mat := reason.Materialize(kb.Base(), kb.Rules())
	tr := kb.Encode(lubm.SchemaUpdates()[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Insert(tr)
		mat.Delete(tr)
	}
}

func BenchmarkMaintainSchemaCounting(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	cnt := reason.MaterializeCounting(kb.Base(), kb.Rules())
	tr := kb.Encode(lubm.SchemaUpdates()[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt.Insert(tr)
		cnt.Delete(tr)
	}
}

// BenchmarkSaturateParallel compares worker counts for the
// round-synchronous parallel materialisation with the hash-sharded merge
// (E10), at the scales BenchmarkSaturate measures sequentially. workers=0
// selects GOMAXPROCS — the wall-clock comparison point against the
// sequential engine (identical by construction when GOMAXPROCS is 1, since
// one worker degenerates to the sequential path).
func BenchmarkSaturateParallel(b *testing.B) {
	for _, depts := range []int{2, 6} {
		cfg := lubm.SmallConfig()
		cfg.DeptsPerUniv = depts
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2} {
			b.Run(benchName("depts", depts)+"/"+benchName("workers", workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					reason.MaterializeParallel(kb.Base(), kb.Rules(), workers)
				}
			})
		}
	}
}

// BenchmarkDatalog compares the two RDF→Datalog encodings on the same
// saturation job (E9).
func BenchmarkDatalog(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := datalog.TranslateNaive(kb.Base(), kb.Vocab())
			if _, err := datalog.Eval(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := datalog.TranslateSplit(kb.Base(), kb.Vocab())
			if _, err := datalog.Eval(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPIQuickstart exercises the façade end to end: load,
// build a strategy, answer — the fixed cost a downstream user pays.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	g := webreason.LUBMGenerate(1, 1, 1)
	g.AddAll(webreason.LUBMOntology())
	q := webreason.MustParseQuery(`PREFIX lubm: <http://lubm.example.org/onto#> SELECT ?x WHERE { ?x a lubm:Student }`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb := webreason.NewKB()
		if _, err := kb.LoadGraph(g); err != nil {
			b.Fatal(err)
		}
		s := webreason.NewReformulationStrategy(kb)
		if _, err := s.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}
