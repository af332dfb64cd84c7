package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	webreason "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/store"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// higherIsBetter names the per-layer metrics an optimisation should raise:
// batching and cache reuse. Every other one is a time, a size or an amount
// of work, and lower is better.
var higherIsBetter = map[string]bool{
	"server.batch_calls_mean":  true,
	"server.pool_hit_ratio":    true,
	"persist.group_fanin_mean": true,
}

// better is the direction BENCHMARK.json records for the metric.
func (d metricDef) better() string {
	if higherIsBetter[d.name] {
		return "higher"
	}
	return "lower"
}

// spanLayers are the layers spans are attributed to, by the prefix of the
// span name.
var spanLayers = []string{"bench", "sparql", "server", "dict", "replica"}

// perLayerMetrics lists every metric a traced run reports, in the order
// BENCHMARK.json lists them. A layer a workload does not exercise reports 0.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"sparql.parse_p50_us", "us"},
		{"core.prepare_p50_us", "us"},
		{"core.plan_compiled_per_read", "ratio"},
		{"core.plan_replanned_per_read", "ratio"},
		{"core.refplan_rebuilt_per_read", "ratio"},
		{"core.refplan_rebound_per_read", "ratio"},
	}
	names := queryNames()
	for _, q := range names {
		defs = append(defs, metricDef{"engine.exec_p50_us." + q, "us"})
	}
	for _, q := range names {
		defs = append(defs, metricDef{"engine.rows." + q, "count"})
	}
	defs = append(defs, metricDef{"dict.decode_p50_us", "us"})
	for _, q := range names {
		defs = append(defs, metricDef{"reformulate.branches." + q, "count"})
	}
	defs = append(defs,
		metricDef{"reformulate.rewrite_p50_us", "us"},
		metricDef{"reason.saturate_s", "s"},
		metricDef{"reason.maint_insert_p50_us", "us"},
		metricDef{"reason.maint_delete_p50_us", "us"},
		metricDef{"reason.derived_per_insert", "count"},
		metricDef{"reason.removed_per_delete", "count"},
		metricDef{"store.copied_nodes_per_triple", "count"},
		metricDef{"server.enqueue_wait_p99_us", "us"},
		metricDef{"server.queue_depth_max", "count"},
		metricDef{"server.apply_p50_us", "us"},
		metricDef{"server.apply_p99_us", "us"},
		metricDef{"server.batch_calls_mean", "count"},
		metricDef{"server.session_wait_p99_us", "us"},
		metricDef{"server.pool_hit_ratio", "ratio"},
		metricDef{"persist.append_p50_us", "us"},
		metricDef{"persist.fsync_p50_us", "us"},
		metricDef{"persist.fsync_p99_us", "us"},
		metricDef{"persist.group_fanin_mean", "count"},
		metricDef{"persist.checkpoints", "count"},
		metricDef{"persist.checkpoint_p50_ms", "ms"},
		metricDef{"persist.wal_bytes_per_triple", "B"},
		metricDef{"persist.open_ms", "ms"},
		metricDef{"persist.disk_bytes_per_triple", "B"},
		metricDef{"replica.bootstrap_ms", "ms"},
		metricDef{"replica.lag_records_max", "count"},
		metricDef{"replica.shipped_per_ack", "count"},
		metricDef{"replica.visible_p50_us", "us"},
		metricDef{"replica.visible_p99_us", "us"},
		metricDef{"generator.send_lag_p50_us", "us"},
		metricDef{"generator.send_lag_p99_us", "us"},
		metricDef{"tail.read_p99_us", "us"},
		metricDef{"tail.write_p99_us", "us"},
		metricDef{"tail.visible_p99_us", "us"},
		metricDef{"write.mix_p50_us", "us"},
	)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"self_us_per_op." + l, "us"})
	}
	return append(defs,
		metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.overhead_read", "ratio"},
		metricDef{"trace.overhead_write", "ratio"},
	)
}

// queryNames returns Q1..Q14.
func queryNames() []string {
	var names []string
	for _, q := range lubm.Queries() {
		names = append(names, q.Name)
	}
	return names
}

// runTraced measures the workload twice over half the window each, on
// fresh instances with the same schedule: untraced, then with the
// registries and the benchmark's spans on. It reports the per-layer
// metrics: registry instruments and spans from the traced half, trace
// overhead as traced over untraced medians, the count pass, and the layer
// timing pass. It also prints the paper's Figure 3 record.
func runTraced(sp *spec, seed int64, window time.Duration, work, out string) (*report, error) {
	rep := &report{}
	in, err := generate(sp, seed, window/2)
	if err != nil {
		return nil, err
	}

	plain, err := setUp(sp, work, modePlain)
	if err != nil {
		return nil, err
	}
	if err := warm(plain, in); err != nil {
		plain.close()
		return nil, err
	}
	base := drive(plain, in, false)
	if err := rep.check(plain, in, base); err != nil {
		plain.close()
		return nil, err
	}
	rep.generator(base)
	rep.set("generator.send_lag_p50_us", base.lag.quantileUS(0.5), "us")
	rep.set("generator.send_lag_p99_us", base.lag.quantileUS(0.99), "us")
	rep.set("tail.read_p99_us", base.read.all().quantileUS(0.99), "us")
	rep.set("tail.write_p99_us", base.write.all().quantileUS(0.99), "us")
	rep.set("tail.visible_p99_us", base.visible.all().quantileUS(0.99), "us")
	// The write mix is per-layer, not end-to-end: under SyncNever the
	// durable ack fires before the writer applies the batch, and whether the
	// acked client runs first depends on whether the other core steals it,
	// so durable-write's acks split into two modes (≈150 and ≈550 us) in a
	// proportion that changes from run to run, and their median with it.
	rep.set("write.mix_p50_us", base.write.mixP50US(), "us")
	rep.set("replica.visible_p50_us", base.replica.quantileUS(0.5), "us")
	rep.set("replica.visible_p99_us", base.replica.quantileUS(0.99), "us")
	rep.tails(base)
	if sp.durable {
		n, err := plain.diskBytes()
		if err != nil {
			plain.close()
			return nil, err
		}
		rep.set("persist.disk_bytes_per_triple", float64(n)/float64(liveTriples(plain, in)), "B")
	}
	if err := plain.close(); err != nil {
		return nil, err
	}

	sys, err := setUp(sp, work, modeTraced)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := warm(sys, in); err != nil {
		return nil, err
	}
	before := readCounters(sys)
	stopGauges := sampleGauges(sys, rep)
	win := drive(sys, in, true)
	stopGauges()
	after := readCounters(sys)
	rep.instruments(sys, win, before, after)
	rep.spans(win, len(in.ops))
	if err := writeSpans(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed)), win.spans); err != nil {
		return nil, err
	}
	overRead := ratio(win.read.mixP50US(), base.read.mixP50US())
	overWrite := ratio(win.write.mixP50US(), base.write.mixP50US())
	rep.set("trace.overhead_read", overRead, "ratio")
	rep.set("trace.overhead_write", overWrite, "ratio")
	rep.set("trace.overhead", math.Sqrt(overRead*overWrite), "ratio")
	if err := rep.layerTimings(sys); err != nil {
		return nil, err
	}
	if err := rep.check(sys, in, win); err != nil {
		return nil, err
	}

	counts, err := countPass(sp, seed, work, true)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayerMetrics() {
		if v, ok := counts[d.name]; ok {
			rep.set(d.name, v, d.unit)
		}
	}
	if err := rep.figure3(); err != nil {
		return nil, err
	}
	for _, d := range perLayerMetrics() {
		if _, ok := rep.Metrics[d.name]; !ok {
			rep.set(d.name, 0, d.unit)
		}
	}
	return rep, nil
}

// liveTriples is the number of asserted triples once every write of the
// schedule has been applied.
func liveTriples(sys *system, in *inputs) int {
	n := sys.baseLen
	for _, b := range liveBatches(in) {
		n += len(in.batches[b].ts)
	}
	return n
}

// counters are the process-wide plan counters and the follower's shipped
// records, read around the traced window.
type counters struct {
	compiled, replanned, rebuilt, rebound, shipped, checkpoints float64
}

func readCounters(sys *system) counters {
	return counters{
		compiled:    float64(engine.PlanStats.Compiled.Load()),
		replanned:   float64(engine.PlanStats.Replanned.Load()),
		rebuilt:     float64(core.RefPlanStats.Rebuilt.Load()),
		rebound:     float64(core.RefPlanStats.Rebound.Load()),
		shipped:     float64(sys.freg.Counter("replica_shipped_records_total", "").Value()),
		checkpoints: float64(hist(sys.reg, "persist_checkpoint_seconds").Count()),
	}
}

// hist returns a registry's histogram handle: the one the serving stack
// registered under that name and labels, or an empty one when nothing did.
func hist(reg *webreason.MetricsRegistry, name string, labels ...string) *obs.Histogram {
	return reg.Histogram(name, "", 1e-9, labels...)
}

// us converts a raw nanosecond histogram value to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// mean returns a histogram's mean in raw units.
func mean(h *obs.Histogram) float64 { return ratio(float64(h.Sum()), float64(h.Count())) }

// instruments reads the registries the traced instance fed: the same
// handles /metrics serves.
func (r *report) instruments(sys *system, win *window, before, after counters) {
	reads := float64(win.read.count())
	r.set("core.plan_compiled_per_read", ratio(after.compiled-before.compiled, reads), "ratio")
	r.set("core.plan_replanned_per_read", ratio(after.replanned-before.replanned, reads), "ratio")
	r.set("core.refplan_rebuilt_per_read", ratio(after.rebuilt-before.rebuilt, reads), "ratio")
	r.set("core.refplan_rebound_per_read", ratio(after.rebound-before.rebound, reads), "ratio")

	reg := sys.reg
	r.set("server.enqueue_wait_p99_us", us(hist(reg, "webreason_enqueue_wait_seconds").Quantile(0.99)), "us")
	r.set("server.batch_calls_mean", mean(hist(reg, "webreason_apply_batch_calls")), "count")
	apply := hist(reg, "webreason_apply_seconds")
	r.set("server.apply_p50_us", us(apply.Quantile(0.5)), "us")
	r.set("server.apply_p99_us", us(apply.Quantile(0.99)), "us")
	r.set("server.session_wait_p99_us", us(hist(reg, "webreason_session_wait_seconds").Quantile(0.99)), "us")
	hits := float64(reg.Counter("webreason_prepared_pool_hits_total", "", "strategy", sys.sp.strategy).Value())
	misses := float64(reg.Counter("webreason_prepared_pool_misses_total", "", "strategy", sys.sp.strategy).Value())
	r.set("server.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	if sys.sp.strategy == "saturation" {
		r.set("reason.saturate_s", sys.saturate.Seconds(), "s")
	}
	if !sys.sp.durable {
		return
	}
	r.set("persist.append_p50_us", us(hist(reg, "persist_wal_append_seconds").Quantile(0.5)), "us")
	fsync := hist(reg, "persist_wal_fsync_seconds")
	r.set("persist.fsync_p50_us", us(fsync.Quantile(0.5)), "us")
	r.set("persist.fsync_p99_us", us(fsync.Quantile(0.99)), "us")
	r.set("persist.group_fanin_mean", mean(hist(reg, "persist_group_coalesced_records")), "count")
	ckpt := hist(reg, "persist_checkpoint_seconds")
	r.set("persist.checkpoints", after.checkpoints-before.checkpoints, "count")
	r.set("persist.checkpoint_p50_ms", float64(ckpt.Quantile(0.5))/1e6, "ms")
	r.set("persist.open_ms", float64(sys.open.Microseconds())/1e3, "ms")
	r.set("replica.bootstrap_ms", mean(hist(sys.freg, "replica_bootstrap_seconds"))/1e6, "ms")
	r.set("replica.shipped_per_ack", ratio(after.shipped-before.shipped, float64(win.write.count())), "count")
}

// sampleGauges polls, every 5 ms until the returned stop function is
// called, the server's queue depth (Health().Pending, the value the
// webreason_queue_depth gauge exposes) and, with a follower, its lag in
// records, and reports the largest of each seen.
func sampleGauges(sys *system, r *report) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var depth, lag int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				depth = max(depth, int64(sys.srv.Health().Pending))
				if sys.fol != nil {
					lag = max(lag, sys.fol.Status().LagRecords)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.set("server.queue_depth_max", float64(depth), "count")
		if sys.fol != nil {
			r.set("replica.lag_records_max", float64(lag), "count")
		}
	}
}

// spans derives per-layer figures from the traced window's spans: parse
// and decode medians, and each layer's self time per operation — a span's
// duration less the part its children cover.
func (r *report) spans(win *window, ops int) {
	var parse, decode durations
	self := map[string]int64{}
	for _, ss := range win.spans {
		childNS := make(map[int32]int64)
		for _, s := range ss {
			if s.parent >= 0 {
				childNS[s.parent] += s.end - s.start
			}
		}
		for i, s := range ss {
			d := s.end - s.start
			switch s.name {
			case spanParse:
				parse = append(parse, time.Duration(d))
			case spanDecode:
				decode = append(decode, time.Duration(d))
			}
			layer, _, _ := strings.Cut(spanNames[s.name], ".")
			self[layer] += d - childNS[int32(i)]
		}
	}
	r.set("sparql.parse_p50_us", parse.quantileUS(0.5), "us")
	r.set("dict.decode_p50_us", decode.quantileUS(0.5), "us")
	for _, l := range spanLayers {
		r.set("self_us_per_op."+l, ratio(float64(self[l])/1e3, float64(ops)), "us")
	}
}

// writeSpans writes the spans as JSON lines: id, parent id (-1 for an
// operation's root), request id (the operation's index in the schedule),
// name and times in nanoseconds from the window start.
func writeSpans(path string, spans [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	offset := 0
	for _, ss := range spans {
		for i, s := range ss {
			parent := -1
			if s.parent >= 0 {
				parent = offset + int(s.parent)
			}
			rec := struct {
				ID      int    `json:"id"`
				Parent  int    `json:"parent"`
				Req     int32  `json:"req"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{offset + i, parent, s.req, spanNames[s.name], s.start, s.end}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
		offset += len(ss)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimings times the public calls one read is made of, on one client
// after the window: Strategy().Prepare, PreparedQuery.Answer and, for
// reformulation, the rewriting alone.
func (r *report) layerTimings(sys *system) error {
	const reps = 10
	strat := sys.srv.Strategy()
	ref, _ := strat.(*core.Reformulation)
	var prep, rewrite durations
	for k, q := range canonicalQueries() {
		var exec durations
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			pq, err := strat.Prepare(q)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := pq.Answer(); err != nil {
				return err
			}
			prep = append(prep, t1.Sub(t0))
			exec = append(exec, time.Since(t1))
			if ref != nil {
				t2 := time.Now()
				if _, err := ref.Reformulate(q); err != nil {
					return err
				}
				rewrite = append(rewrite, time.Since(t2))
			}
		}
		r.set("engine.exec_p50_us."+queryNames()[k], exec.quantileUS(0.5), "us")
	}
	r.set("core.prepare_p50_us", prep.quantileUS(0.5), "us")
	r.set("reformulate.rewrite_p50_us", rewrite.quantileUS(0.5), "us")
	return nil
}

// countWindow and countWrites fix the count pass's input: the first
// countWrites write operations of the schedule generated for a window of
// countWindow, whatever the run's own length.
const (
	countWindow = 10 * time.Second
	countWrites = 400
)

// countPass computes the counts a later change may cite, with one client,
// the given seed and no timers in what is counted, so they repeat exactly:
// rows of Q1..Q14 and, under reformulation, the branches of their
// rewritings, on a fresh instance; then, replaying the schedule's first
// write operations, rule derivations and DRed removals on a standalone
// materialisation (saturation workloads), copy-on-write node copies per
// triple written, and WAL bytes per triple logged (durable workloads).
// timed adds the maintenance call medians, which do not repeat.
func countPass(sp *spec, seed int64, work string, timed bool) (map[string]float64, error) {
	in, err := generate(sp, seed, countWindow)
	if err != nil {
		return nil, err
	}
	var writes []op
	for _, o := range in.ops {
		if o.kind == opInsert || o.kind == opDelete {
			writes = append(writes, o)
			if len(writes) == countWrites {
				break
			}
		}
	}
	out := map[string]float64{}
	sys, err := setUp(sp, work, modeCount)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ref, _ := sys.srv.Strategy().(*core.Reformulation)
	for k, q := range canonicalQueries() {
		res, err := sys.srv.Query(q)
		if err != nil {
			return nil, err
		}
		out["engine.rows."+queryNames()[k]] = float64(len(res.Rows))
		if ref != nil {
			ucq, err := ref.Reformulate(q)
			if err != nil {
				return nil, err
			}
			out["reformulate.branches."+queryNames()[k]] = float64(ucq.Size())
		}
	}
	if sp.durable {
		if err := walBytes(sys, in, writes, out); err != nil {
			return nil, err
		}
	}
	if sp.strategy == "saturation" {
		if err := replayMaintenance(sp, in, writes, timed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// walBytes sends the writes one at a time through a durable session on an
// instance whose DB never checkpoints, and reports the active WAL's growth
// per triple logged.
func walBytes(sys *system, in *inputs, writes []op, out map[string]float64) error {
	sess := sys.srv.Session()
	start := sys.db.Stats().WALSize
	triples := 0
	for _, o := range writes {
		ts := in.batches[o.batch].ts
		var err error
		if o.kind == opDelete {
			err = sess.DeleteDurable(ts...)
		} else {
			err = sess.InsertDurable(ts...)
		}
		if err != nil {
			return err
		}
		triples += len(ts)
	}
	out["persist.wal_bytes_per_triple"] = ratio(float64(sys.db.Stats().WALSize-start), float64(triples))
	return nil
}

// replayMaintenance replays the writes on a standalone materialisation of
// the workload's graph: first every insert, then every delete, each in
// schedule order and each after a snapshot, as the server takes one when it
// publishes a batch, so each write pays the path copies it pays there. The
// batches are disjoint, so the split changes no batch's derivations or
// removals. Copies are counted on the inserts, before any delete: DRed
// removes the triples it overdeleted in map order, so the copies a delete
// pays, and those of writes after it, vary between runs.
func replayMaintenance(sp *spec, in *inputs, writes []op, timed bool, out map[string]float64) error {
	kb, err := initialKB(sp)
	if err != nil {
		return err
	}
	m := reason.Materialize(kb.Base(), kb.Rules())
	st := m.Store()
	var (
		inserts, deletes, inserted int
		derived, removed, copied   float64
		insDur, delDur             durations
	)
	for _, del := range []bool{false, true} {
		for _, o := range writes {
			if (o.kind == opDelete) != del {
				continue
			}
			ts := make([]store.Triple, 0, len(in.batches[o.batch].ts))
			for _, t := range in.batches[o.batch].ts {
				ts = append(ts, kb.Encode(t))
			}
			st.Snapshot()
			c0, n0 := st.CopiedNodes(), st.Len()
			t0 := time.Now()
			if del {
				m.Delete(ts...)
				delDur = append(delDur, time.Since(t0))
				removed += float64(n0 - st.Len())
				deletes++
				continue
			}
			m.Insert(ts...)
			insDur = append(insDur, time.Since(t0))
			derived += float64(m.Stats.Derived)
			copied += float64(st.CopiedNodes() - c0)
			inserted += len(ts)
			inserts++
		}
	}
	out["reason.derived_per_insert"] = ratio(derived, float64(inserts))
	out["reason.removed_per_delete"] = ratio(removed, float64(deletes))
	out["store.copied_nodes_per_triple"] = ratio(copied, float64(inserted))
	if timed {
		out["reason.maint_insert_p50_us"] = insDur.quantileUS(0.5)
		out["reason.maint_delete_p50_us"] = delDur.quantileUS(0.5)
	}
	return nil
}

// figure3 runs the paper's Figure 3 experiment at durable-write's scale and
// prints its table: thresholds per query and update kind, and the
// saturation and maintenance costs they come from. Informational; no bound.
func (r *report) figure3() error {
	cfg := lubm.DefaultConfig()
	cfg.DeptsPerUniv = 6
	cfg.Seed = graphSeed
	res, err := bench.RunFig3(cfg)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	res.Render(&b)
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		r.logf("fig3 %s", line)
	}
	return nil
}
