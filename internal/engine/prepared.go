package engine

import (
	"slices"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// SortedSource is a Source that can additionally enumerate the free position
// of a two-constant pattern in ascending ID order. The concrete store
// implements it via its sorted postings leaves; virtual sources (union views,
// backward-chaining views) generally cannot, and prepared queries over them
// simply skip the merge-join optimization.
type SortedSource interface {
	Source
	// SortedIDs returns, ascending, the IDs matching the single wildcard
	// position of pat (exactly two positions bound). ok=false means no
	// matches. The slice is read-only and valid until the source is mutated.
	SortedIDs(pat store.Triple) ([]dict.ID, bool)
}

var _ SortedSource = (*store.Store)(nil)

// pstep is one executable step of a prepared plan: either an index
// nested-loop step over one pattern (merge == nil) whose matches feed match,
// or a merge-intersection group — several patterns that each constrain the
// same single unbound variable with every other position constant or already
// bound, evaluated as a k-way sorted-list intersection instead of
// scan-and-probe.
type pstep struct {
	cp cpattern
	// match binds one matched triple and descends; built once per plan so
	// the per-triple inner loop runs closure-allocation-free.
	match    func(store.Triple) bool
	merge    []cpattern
	mergeVar int
	// reusable intersection scratch, per step so nested merge groups do not
	// stomp each other's buffers.
	views       [][]dict.ID
	ibuf, ibuf2 []dict.ID
}

// Prepared is a BGP compiled and planned once and evaluated many times — the
// engine's one evaluator: a one-off query is a Prepare followed by a single
// EvalDistinct. It caches the compiled patterns and the join plan keyed on
// the dictionary version: while no new terms are coined, re-evaluation
// reuses the plan and every scratch buffer, so the steady-state cost per call
// is the join work plus the result rows and nothing else (zero planning
// allocations). When the dictionary grows, the next evaluation transparently
// recompiles and replans — constants that did not resolve before may now,
// and fresh statistics feed the optimizer.
//
// A Prepared is bound to one Source and one Dict (the source can be swapped
// with Rebind — the snapshot-serving path does this on every epoch). It
// reads the source live on every evaluation, so data updates are always
// visible; only the join order can go stale, and it is refreshed on
// dictionary growth or when the source size drifts more than replanDrift×
// from what the optimizer planned against. Not safe for concurrent use;
// evaluation results are independent of the Prepared and stay valid
// indefinitely.
type Prepared struct {
	src      Source
	ss       SortedSource // non-nil iff src supports sorted leaves
	d        *dict.Dict
	patterns []rdf.Triple

	version   uint64
	c         compiled // c.patterns == nil until the first compile
	steps     []pstep
	planSteps []PlanStep
	// planSize is the source's total size when the plan was last computed;
	// the drift check compares against it on every refresh.
	planSize int

	// evaluation scratch, reused across calls
	b       []dict.ID
	undo    []int
	rowHint int

	// fused projection+distinct state
	proj    []string
	projIdx []int
	projRow []dict.ID
	seen    *RowSet

	// per-call state
	res   *Result
	arena []dict.ID
	limit int  // stop after this many rows (0 = all)
	stop  bool // limit reached: unwind the join
}

// Prepare compiles and plans the BGP against src and d for repeated
// evaluation. Structural errors (empty BGP, zero terms) surface here; a
// constant missing from the dictionary is not an error — the query is empty
// until the term is coined, at which point the plan refreshes itself. The
// Prepared retains patterns (it recompiles from them on dictionary growth),
// so the caller must not modify the slice afterwards.
func Prepare(src Source, patterns []rdf.Triple, d *dict.Dict) (*Prepared, error) {
	p := &Prepared{src: src, d: d, patterns: patterns}
	if ss, ok := src.(SortedSource); ok {
		p.ss = ss
	}
	if err := p.refresh(); err != nil {
		return nil, err
	}
	return p, nil
}

// replanDrift is the size-drift factor that invalidates a cached join plan:
// once the source holds more than replanDrift× (or fewer than 1/replanDrift×)
// the triples it was planned against, the optimizer's cardinality estimates
// are stale enough that the greedy order may be badly wrong, so the plan is
// recomputed against fresh statistics. Replanning is cheap (no recompilation,
// no allocation churn beyond the step table), so the factor errs small.
const replanDrift = 2

// PlanStats counts prepared-plan lifecycle events across the process:
// full compilations, statistics-only replans, and source rebinds. The
// counters are package-level atomics so the hot paths pay one uncontended
// RMW and no plumbing; the server exposes them via its metrics registry.
var PlanStats struct {
	Compiled  atomic.Uint64
	Replanned atomic.Uint64
	Rebound   atomic.Uint64
}

// refresh recompiles and replans when the dictionary has grown since the
// last compilation, and replans (statistics only) when the source size has
// drifted more than replanDrift× since the plan was computed; otherwise it
// is a version check plus one O(1) Count and nothing more.
func (p *Prepared) refresh() error {
	v := p.d.Version()
	if p.c.patterns != nil && v == p.version {
		if n := p.src.Count(store.Triple{}); n > replanDrift*p.planSize || replanDrift*n < p.planSize {
			p.replan()
		}
		return nil
	}
	c, err := compile(p.patterns, p.d)
	if err != nil {
		return err
	}
	PlanStats.Compiled.Add(1)
	p.c = c
	p.version = v
	p.replan()
	p.b = make([]dict.ID, len(c.vars))
	if p.proj != nil {
		p.setProjection(p.proj)
	}
	return nil
}

// replan recomputes the join order and step table against the source's
// current statistics, recording the size the optimizer saw.
func (p *Prepared) replan() {
	PlanStats.Replanned.Add(1)
	p.planSize = p.src.Count(store.Triple{})
	p.planSteps = p.c.plan(p.src, p.planSteps)
	p.buildSteps()
}

// Rebind points the prepared query at a different source — typically the
// next snapshot of the same evolving dataset. The compiled patterns, join
// plan and all scratch buffers are kept; the next evaluation revalidates the
// plan against the new source's statistics via the usual drift check, so
// rebinding across small mutation batches costs one pointer swap and one
// O(1) Count. Rebinding to the already-bound source is a no-op. Rebinding
// across a sorted-capability change (SortedSource ⇄ plain Source) rebuilds
// the step table, since merge-intersection groups exist only for sorted
// sources.
func (p *Prepared) Rebind(src Source) {
	if src == p.src {
		return
	}
	PlanStats.Rebound.Add(1)
	hadSorted := p.ss != nil
	p.src = src
	p.ss, _ = src.(SortedSource)
	if hadSorted != (p.ss != nil) {
		p.buildSteps()
	}
}

// soleUnbound inspects cp under bound: if exactly one slot holds an unbound
// variable (occurring in that one slot only) it returns its index and true.
func soleUnbound(cp cpattern, bound []bool) (int, bool) {
	v, n := -1, 0
	for _, s := range [3]slot{cp.s, cp.p, cp.o} {
		if s.isVar && !bound[s.v] {
			n++
			v = s.v
		}
	}
	if n != 1 {
		return -1, false
	}
	return v, true
}

// buildSteps turns the planned pattern order into executable steps, fusing
// runs of patterns that each constrain the same fresh variable — with all
// other positions constant or bound — into merge-intersection groups. The
// regrouping is a valid reorder: a pulled-forward pattern binds only the
// shared variable, so evaluating it earlier can only shrink intermediate
// results. Grouping requires a SortedSource; otherwise every step stays a
// nested-loop step.
func (p *Prepared) buildSteps() {
	c := &p.c
	var orderedBuf [smallBGP]cpattern
	var usedBuf [smallBGP]bool
	var boundBuf [3 * smallBGP]bool
	ordered := scratch(orderedBuf[:], len(p.planSteps))
	for i, st := range p.planSteps {
		ordered[i] = c.patterns[st.PatternIndex]
	}
	used := scratch(usedBuf[:], len(ordered))
	bound := scratch(boundBuf[:], len(c.vars))
	p.steps = p.steps[:0]
	for i, cp := range ordered {
		if used[i] {
			continue
		}
		used[i] = true
		if p.ss != nil {
			if v, ok := soleUnbound(cp, bound); ok {
				var group []cpattern
				for j := i + 1; j < len(ordered); j++ {
					if used[j] {
						continue
					}
					if v2, ok2 := soleUnbound(ordered[j], bound); ok2 && v2 == v {
						if group == nil {
							group = []cpattern{cp}
						}
						group = append(group, ordered[j])
						used[j] = true
					}
				}
				if group != nil {
					p.steps = append(p.steps, pstep{merge: group, mergeVar: v})
					bound[v] = true
					continue
				}
			}
		}
		for _, s := range [3]slot{cp.s, cp.p, cp.o} {
			if s.isVar {
				bound[s.v] = true
			}
		}
		p.steps = append(p.steps, pstep{cp: cp})
	}
	for depth := range p.steps {
		st := &p.steps[depth]
		if st.merge != nil {
			continue
		}
		cp, next := st.cp, depth+1
		st.match = func(t store.Triple) bool {
			mark := len(p.undo)
			if bind(cp, t, p.b, &p.undo) {
				p.rec(next)
			}
			for _, v := range p.undo[mark:] {
				p.b[v] = dict.None
			}
			p.undo = p.undo[:mark]
			return !p.stop
		}
	}
}

// Vars returns the variable names of the BGP in first-occurrence order.
func (p *Prepared) Vars() []string { return p.c.vars }

// Plan returns the cached greedy join order (before merge-group fusion),
// for explain-style output. The slice is shared; treat as read-only.
func (p *Prepared) Plan() []PlanStep {
	p.refresh()
	return p.planSteps
}

// EvalDistinct evaluates the prepared BGP projected onto proj with
// duplicate rows removed, fusing projection and dedup into the join so no
// intermediate result is materialised. Projection variables not bound by
// the pattern yield dict.None columns. With limit > 0 the join stops as soon
// as limit distinct rows exist (an empty projection has at most one row, so
// it always stops at the first match). The Prepared retains proj until a
// call with a different projection, so the caller must not modify it. The
// dedup sets are retained between calls, so steady-state evaluation
// allocates only the result itself; projections wider than three columns
// fall back to string keys and additionally pay one key allocation per
// distinct row.
//
//webreason:hotpath
func (p *Prepared) EvalDistinct(proj []string, limit int) *Result {
	//lint:ignore hotpath recompile/replan is the cold revalidation branch; steady-state refresh is a version check plus one O(1) Count
	p.refresh()
	if !slices.Equal(proj, p.proj) {
		//lint:ignore hotpath projection change is a cold branch; steady-state calls reuse the cached projection
		p.setProjection(proj)
	}
	p.limit = limit
	return p.run()
}

// setProjection computes the projection column map.
func (p *Prepared) setProjection(proj []string) {
	p.proj = proj
	if cap(p.projIdx) < len(proj) {
		p.projIdx = make([]int, len(proj))
		p.projRow = make([]dict.ID, len(proj))
	}
	p.projIdx = p.projIdx[:len(proj)]
	p.projRow = p.projRow[:len(proj)]
	for i, v := range proj {
		p.projIdx[i] = slices.Index(p.c.vars, v)
	}
}

// run executes the prepared plan and collects the distinct projected rows.
func (p *Prepared) run() *Result {
	res := &Result{Vars: p.proj}
	if p.c.impossible {
		return res
	}
	if p.rowHint > 0 {
		res.Rows = make([][]dict.ID, 0, p.rowHint)
	}
	for i := range p.b {
		p.b[i] = dict.None
	}
	p.undo = p.undo[:0]
	p.res = res
	p.arena = nil
	p.stop = false
	p.resetSeen()
	p.rec(0)
	p.rowHint = len(res.Rows)
	p.res, p.arena = nil, nil
	return res
}

// rec descends one plan step; at the bottom it emits the current bindings.
func (p *Prepared) rec(depth int) {
	if depth == len(p.steps) {
		p.emit()
		return
	}
	st := &p.steps[depth]
	if st.merge != nil {
		p.execMerge(depth)
		return
	}
	p.src.ForEachMatch(concrete(st.cp, p.b), st.match)
}

// execMerge evaluates a merge group: fetch the sorted leaf of each pattern
// (with the shared variable as the wildcard), intersect them smallest-first
// with galloping merges, and recurse once per surviving ID.
func (p *Prepared) execMerge(depth int) {
	st := &p.steps[depth]
	views := st.views[:0]
	for _, cp := range st.merge {
		ids, ok := p.ss.SortedIDs(concrete(cp, p.b))
		if !ok {
			st.views = views
			return
		}
		views = append(views, ids)
	}
	st.views = views
	// Intersect ascending by size: insertion sort, k is tiny.
	for i := 1; i < len(views); i++ {
		for j := i; j > 0 && len(views[j]) < len(views[j-1]); j-- {
			views[j], views[j-1] = views[j-1], views[j]
		}
	}
	cur := views[0]
	buf, buf2 := st.ibuf, st.ibuf2
	for i := 1; i < len(views) && len(cur) > 0; i++ {
		buf = store.IntersectSorted(buf[:0], cur, views[i])
		cur = buf
		buf, buf2 = buf2, buf
	}
	st.ibuf, st.ibuf2 = buf, buf2
	v := st.mergeVar
	for _, id := range cur {
		p.b[v] = id
		p.rec(depth + 1)
		if p.stop {
			break
		}
	}
	p.b[v] = dict.None
}

// resetSeen readies the shared dedup set for the current width, keeping
// allocated buckets when the width is unchanged.
func (p *Prepared) resetSeen() {
	w := len(p.proj)
	if w == 0 {
		return
	}
	if p.seen == nil || p.seen.w != w {
		p.seen = NewRowSet(w, max(p.rowHint, 16))
		return
	}
	p.seen.Reset()
}

// emit projects the current bindings and, if the row is new, materialises
// it in the result; reaching the limit stops the join.
func (p *Prepared) emit() {
	w := len(p.proj)
	if w == 0 {
		p.res.Rows = append(p.res.Rows, nil)
		p.stop = true
		return
	}
	row := p.projRow
	for i, j := range p.projIdx {
		if j >= 0 {
			row[i] = p.b[j]
		} else {
			row[i] = dict.None
		}
	}
	if !p.seen.Add(row) {
		return
	}
	// Rows are carved out of chunks sized by the previous call's row count,
	// so a steady-state evaluation fills exactly one chunk.
	if len(p.arena)+w > cap(p.arena) {
		rows := max(p.rowHint, 64)
		if p.limit > 0 {
			rows = min(rows, p.limit)
		}
		p.arena = make([]dict.ID, 0, rows*w)
	}
	n := len(p.arena)
	p.arena = p.arena[: n+w : cap(p.arena)]
	out := p.arena[n : n+w : n+w]
	copy(out, row)
	p.res.Rows = append(p.res.Rows, out)
	if len(p.res.Rows) == p.limit {
		p.stop = true
	}
}
