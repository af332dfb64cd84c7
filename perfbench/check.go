package main

import (
	"fmt"
	"sort"

	webreason "repro"
)

// fingerprint is an order-independent digest of a decoded answer: the row
// count and the wrapping sum of per-row hashes. Columns are hashed in
// variable-name order, so two strategies that project the same variables
// in different orders agree. Computing one costs a pass over the rows, cheap
// enough to do on the clock; comparing it with an oracle happens after the
// measured window.
type fingerprint struct {
	rows int
	sum  uint64
}

func (f fingerprint) String() string { return fmt.Sprintf("%d rows/%016x", f.rows, f.sum) }

// fingerprintRows digests rows whose columns are named by vars. When keep is
// set, only the rows it accepts are digested.
func fingerprintRows(vars []string, rows [][]webreason.Term, keep func([]webreason.Term) bool) fingerprint {
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vars[order[a]] < vars[order[b]] })
	var f fingerprint
	for _, row := range rows {
		if keep != nil && !keep(row) {
			continue
		}
		h := uint64(14695981039346656037)
		for _, c := range order {
			h = hashTerm(h, row[c])
		}
		f.rows++
		f.sum += mix64(h)
	}
	return f
}

// hashTerm folds one term into an FNV-1a hash.
func hashTerm(h uint64, t webreason.Term) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(t.Kind)) * prime
	for _, s := range [...]string{t.Value, t.Datatype, t.Lang} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	return h
}

// mix64 is the splitmix64 finaliser; it spreads row hashes before they are
// summed so that the sum does not cancel structured collisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// answerCheck is one read whose answer is verified after the window: the
// fingerprint taken on the clock and the query text the oracle answers.
type answerCheck struct {
	text string
	got  fingerprint
}

// oracle answers query texts on a reference strategy, caching per distinct
// text.
type oracle struct {
	strat  webreason.Strategy
	kb     *webreason.KB
	keep   func([]webreason.Term) bool
	cached map[string]fingerprint
}

func newOracle(strat webreason.Strategy, kb *webreason.KB, keep func([]webreason.Term) bool) *oracle {
	return &oracle{strat: strat, kb: kb, keep: keep, cached: map[string]fingerprint{}}
}

// want returns the oracle's fingerprint for a query text.
func (o *oracle) want(text string) (fingerprint, error) {
	if f, ok := o.cached[text]; ok {
		return f, nil
	}
	q, err := webreason.ParseQuery(text)
	if err != nil {
		return fingerprint{}, err
	}
	res, err := o.strat.Answer(q)
	if err != nil {
		return fingerprint{}, err
	}
	f := fingerprintRows(res.Vars, res.Decode(o.kb.Dict()), o.keep)
	o.cached[text] = f
	return f, nil
}

// verify compares every recorded answer with the oracle and returns the
// number of mismatches, printing the first few.
func (o *oracle) verify(checks []answerCheck, log func(string, ...any)) (wrong int, err error) {
	for _, c := range checks {
		want, err := o.want(c.text)
		if err != nil {
			return wrong, err
		}
		if c.got != want {
			if wrong < 3 {
				log("wrong answer: got %v, oracle %v for %q", c.got, want, c.text)
			}
			wrong++
		}
	}
	return wrong, nil
}

// check verifies a window's operations and final state, and fills in the
// result's attempted, failed and correct fields. Reads are compared with
// an oracle strategy built over the workload's initial graph: reformulation
// for a saturation workload, saturation for a reformulation one; for a
// workload whose writes change answers, only the rows without terms the
// writes coined are compared, and those must equal the initial answer.
// Then the server's answers to Q1..Q14 are compared with a fresh
// saturation of the final graph.
func (r *report) check(sys *system, in *inputs, win *window) error {
	var checks []answerCheck
	failed := 0
	for _, res := range win.res {
		switch {
		case res.failed:
			failed++
		case res.hasCheck:
			checks = append(checks, res.check)
		}
	}
	if win.errs > 0 {
		r.logf("%d operations returned errors; first: %v", win.errs, win.firstErr)
	}
	if len(checks) > 0 {
		kb, err := initialKB(sys.sp)
		if err != nil {
			return err
		}
		name := "reformulation"
		if sys.sp.strategy == "reformulation" {
			name = "saturation"
		}
		strat, err := webreason.NewStrategy(name, kb)
		if err != nil {
			return err
		}
		wrong, err := newOracle(strat, kb, sys.sp.keepRow()).verify(checks, r.logf)
		if err != nil {
			return err
		}
		failed += wrong
	}
	wrong, err := finalCheck(sys, in, r.logf)
	if err != nil {
		return err
	}
	r.Attempted += len(in.ops) + len(in.canon)
	r.Failed += failed + wrong
	r.Correct = r.Failed == 0
	r.logf("checked %d answers against the oracle and %d final answers; %d failed of %d attempted",
		len(checks), len(in.canon), r.Failed, r.Attempted)
	return nil
}

// graphSeed is the LUBM generator's seed. The graph is the same for every
// run, so that the run seed, which draws the request stream, does not also
// move the cost of every query with the data.
const graphSeed = 1

// initialKB loads the workload's generated graph into a fresh KB, in sorted
// order: LoadGraph walks the graph's map, so dictionary IDs, and with them
// the index shapes that counts such as copied nodes depend on, would differ
// from run to run.
func initialKB(sp *spec) (*webreason.KB, error) {
	g := webreason.LUBMGenerate(sp.univs, sp.depts, graphSeed)
	g.AddAll(webreason.LUBMOntology())
	kb := webreason.NewKB()
	for _, t := range g.Triples() {
		if _, err := kb.Add(t); err != nil {
			return nil, err
		}
	}
	return kb, nil
}

// liveBatches returns the batches inserted and not retracted by the end of
// the schedule.
func liveBatches(in *inputs) []int {
	deleted := make([]bool, len(in.batches))
	for _, o := range in.ops {
		if o.kind == opDelete {
			deleted[o.batch] = true
		}
	}
	var live []int
	for b := range in.batches {
		if !deleted[b] {
			live = append(live, b)
		}
	}
	return live
}

// finalCheck compares the server's answers to Q1..Q14, once every write has
// been applied, with a fresh saturation of the final graph.
func finalCheck(sys *system, in *inputs, log func(string, ...any)) (wrong int, err error) {
	if err := sys.srv.Flush(); err != nil {
		return 0, err
	}
	kb, err := initialKB(sys.sp)
	if err != nil {
		return 0, err
	}
	for _, b := range liveBatches(in) {
		for _, t := range in.batches[b].ts {
			if _, err := kb.Add(t); err != nil {
				return 0, err
			}
		}
	}
	want := newOracle(webreason.NewSaturationStrategy(kb), kb, nil)
	for _, text := range in.canon {
		q, err := webreason.ParseQuery(text)
		if err != nil {
			return wrong, err
		}
		res, err := sys.srv.Query(q)
		if err != nil {
			return wrong, err
		}
		got := fingerprintRows(res.Vars, res.Decode(sys.kb.Dict()), nil)
		exp, err := want.want(text)
		if err != nil {
			return wrong, err
		}
		if got != exp {
			log("final answer differs from a fresh saturation: got %v, want %v for %q", got, exp, text)
			wrong++
		}
	}
	return wrong, nil
}
