package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	webreason "repro"
)

// shortWindow keeps the tests' measured windows small.
const shortWindow = 400 * time.Millisecond

// runWindow sets a workload up and drives a short window of its schedule.
func runWindow(t *testing.T, name string) (*system, *inputs, *window) {
	t.Helper()
	sp := specByName(name)
	in, err := generate(sp, 7, shortWindow)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setUp(sp, t.TempDir(), modePlain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.close(); err != nil {
			t.Error(err)
		}
	})
	return sys, in, drive(sys, in, false)
}

// TestCheckerCountsWrongAnswers corrupts one read's answer, and then the
// server's final state, and expects the checker to count each.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	for _, name := range []string{"lubm-read", "reform-mixed"} {
		t.Run(name, func(t *testing.T) {
			sys, in, win := runWindow(t, name)
			var clean report
			if err := clean.check(sys, in, win); err != nil {
				t.Fatal(err)
			}
			if !clean.Correct || clean.Failed != 0 {
				t.Fatalf("clean run: correct=%v failed=%d, want a correct run\n%v", clean.Correct, clean.Failed, clean.info)
			}

			corrupted := -1
			for i := range win.res {
				if win.res[i].hasCheck {
					win.res[i].check.got.sum ^= 1
					corrupted = i
					break
				}
			}
			if corrupted < 0 {
				t.Fatal("the window recorded no checked reads")
			}
			var r report
			if err := r.check(sys, in, win); err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed != 1 {
				t.Fatalf("one corrupted answer: correct=%v failed=%d, want false and 1", r.Correct, r.Failed)
			}
			win.res[corrupted].check.got.sum ^= 1

			// A triple no operation wrote changes Q1's final answer.
			extra := webreason.T(
				webreason.NewIRI("http://lubm.example.org/data/univ0/dept0/intruder"),
				webreason.Type, webreason.NewIRI("http://lubm.example.org/onto#GraduateStudent"))
			takes := webreason.T(extra.S,
				webreason.NewIRI("http://lubm.example.org/onto#takesCourse"),
				webreason.NewIRI("http://lubm.example.org/data/univ0/dept0/course0"))
			if err := sys.srv.Insert(extra, takes); err != nil {
				t.Fatal(err)
			}
			var f report
			if err := f.check(sys, in, win); err != nil {
				t.Fatal(err)
			}
			if f.Correct || f.Failed == 0 {
				t.Fatalf("corrupted final state: correct=%v failed=%d, want it counted", f.Correct, f.Failed)
			}
		})
	}
}

// TestCountPassRepeats runs the count pass twice per workload with the
// same seed and expects identical counts.
func TestCountPassRepeats(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, err := countPass(sp, 3, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := countPass(sp, 3, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("count passes differ:\n%v\n%v", a, b)
			}
			if a["engine.rows.Q1"] == 0 {
				t.Errorf("engine.rows.Q1 = 0; counts: %v", a)
			}
			switch {
			case sp.durable:
				if a["persist.wal_bytes_per_triple"] == 0 || a["reason.derived_per_insert"] == 0 {
					t.Errorf("durable counts missing: %v", a)
				}
			case sp.strategy == "reformulation":
				if a["reformulate.branches.Q5"] < 2 {
					t.Errorf("reformulate.branches.Q5 = %v, want a union", a["reformulate.branches.Q5"])
				}
			}
		})
	}
}

// TestScheduleDeterministic: the same seed gives the same inputs, another
// seed other inputs, and every schedule offers rate × window operations in
// order within the window.
func TestScheduleDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 5, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sp, 5, 2*time.Second)
		c, _ := generate(sp, 6, 2*time.Second)
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.texts, b.texts) {
			t.Errorf("%s: same seed, different schedules", sp.name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 5 and 6 gave the same schedule", sp.name)
		}
		if want := int(2 * sp.rate); len(a.ops) != want || len(c.ops) != want {
			t.Errorf("%s: %d and %d operations in 2 s, want %d", sp.name, len(a.ops), len(c.ops), want)
		}
		for i, o := range a.ops {
			if o.at < 0 || o.at >= 2*time.Second || (i > 0 && o.at < a.ops[i-1].at) {
				t.Errorf("%s: operation %d at %v is out of order or outside the window", sp.name, i, o.at)
				break
			}
		}
	}
}

// TestRunsReportDeclaredMetrics runs one plain and one traced pass and
// expects exactly the metrics BENCHMARK.json declares, with its units; the
// end-to-end ones must be positive.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, sp := range specs {
		ours = append(ours, sp.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	var layers []metricDef
	for _, m := range decl.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
		if want := (metricDef{m.Name, m.Unit}).better(); m.Better != want {
			t.Errorf("BENCHMARK.json per_layer %s: better %q, want %q", m.Name, m.Better, want)
		}
	}
	if !reflect.DeepEqual(layers, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics():\n%v\n%v", layers, perLayerMetrics())
	}

	sp := specByName("reform-mixed")
	plain, err := runPlain(sp, 2, shortWindow, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Correct {
		t.Fatalf("plain run incorrect: %v", plain.info)
	}
	if len(plain.Metrics) != len(decl.EndToEnd) {
		t.Errorf("plain run reports %d metrics, BENCHMARK.json declares %d", len(plain.Metrics), len(decl.EndToEnd))
	}
	for _, m := range decl.EndToEnd {
		got, ok := plain.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("end-to-end %s: got %+v (reported %v), want a positive value in %s", m.Name, got, ok, m.Unit)
		}
	}

	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			traced, err := runTraced(sp, 2, 2*shortWindow, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run incorrect: %v", traced.info)
			}
			if len(traced.Metrics) != len(decl.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(traced.Metrics), len(decl.PerLayer))
			}
			for _, m := range decl.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (reported %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range exercised[sp.name] {
				if got := traced.Metrics[name]; !(got.Value > 0) {
					t.Errorf("per-layer %s = %v, want a positive value: the workload exercises it", name, got.Value)
				}
			}
		})
	}
}

// exercised lists, per workload, per-layer metrics a traced run must
// report as positive because the workload drives that layer even in a
// short window.
var exercised = map[string][]string{
	"lubm-read": {
		"reason.saturate_s", "sparql.parse_p50_us", "core.prepare_p50_us",
		"engine.exec_p50_us.Q1", "engine.rows.Q1", "dict.decode_p50_us",
		"server.apply_p50_us", "server.pool_hit_ratio", "trace.overhead",
	},
	"durable-write": {
		"reason.saturate_s", "reason.maint_insert_p50_us", "reason.derived_per_insert",
		"reason.removed_per_delete", "store.copied_nodes_per_triple",
		"server.apply_p50_us", "persist.append_p50_us", "persist.wal_bytes_per_triple",
		"persist.open_ms", "persist.disk_bytes_per_triple", "replica.bootstrap_ms",
		"replica.visible_p50_us", "trace.overhead",
	},
	"reform-mixed": {
		"sparql.parse_p50_us", "core.prepare_p50_us", "engine.rows.Q1",
		"reformulate.branches.Q5", "reformulate.rewrite_p50_us",
		"server.apply_p50_us", "trace.overhead",
	},
}

// TestSchemaProbesNeedTheSchemaTriple: the probe of each of reform-mixed's
// schema batches holds with the batch's schema triple and fails without it,
// so a read answered from a plan that missed the schema change is caught.
func TestSchemaProbesNeedTheSchemaTriple(t *testing.T) {
	sp := specByName("reform-mixed")
	for _, b := range []int{50, 150} {
		ts, probe := sp.batch(b)
		q, err := webreason.ParseQuery(probe)
		if err != nil {
			t.Fatal(err)
		}
		for _, withSchema := range []bool{false, true} {
			sys, err := setUp(sp, t.TempDir(), modeCount)
			if err != nil {
				t.Fatal(err)
			}
			sess := sys.srv.Session()
			write := ts[1:]
			if withSchema {
				write = ts
			}
			if err := sess.Insert(write...); err != nil {
				t.Fatal(err)
			}
			ok, err := sess.Ask(q)
			if err != nil {
				t.Fatal(err)
			}
			if ok != withSchema {
				t.Errorf("batch %d with schema triple %v: probe %q = %v", b, withSchema, probe, ok)
			}
			if err := sys.close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
