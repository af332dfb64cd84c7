// Package engine evaluates BGP queries over a triple source: variable
// binding, greedy selectivity-based join ordering, index nested-loop joins
// over the store's pattern indexes and sorted merge joins where the source
// keeps its leaves ordered. Prepared is its one evaluator, for one-off and
// repeated queries alike. It is deliberately agnostic about where the
// triples come from — the saturated store, the original store (for
// reformulated queries) or a virtual backward-chaining view all implement
// Source — so the paper's three query-answering techniques differ only in
// the Source and the query they hand to the same evaluator.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Source is anything the engine can match triple patterns against.
type Source interface {
	// ForEachMatch enumerates triples matching pat (dict.None = wildcard);
	// iteration stops early when fn returns false.
	ForEachMatch(pat store.Triple, fn func(store.Triple) bool)
	// Count returns the (possibly estimated) number of matches of pat; the
	// optimizer uses it for join ordering.
	Count(pat store.Triple) int
}

// static assertion: the store is a Source.
var _ Source = (*store.Store)(nil)

// slot is a compiled pattern position: a constant ID or a variable index.
type slot struct {
	isVar bool
	v     int
	id    dict.ID
}

type cpattern struct {
	s, p, o slot
	// original index in the query, reported in plans.
	idx int
}

// compiled is a BGP compiled against a dictionary: variables numbered, and
// constant terms resolved to IDs.
type compiled struct {
	vars []string
	// patterns holds the compiled patterns in original BGP order, so
	// patterns[i].idx == i: a PlanStep.PatternIndex indexes patterns
	// directly.
	patterns []cpattern
	// impossible is set when some constant does not occur in the dictionary:
	// no triple can match, the result is empty.
	impossible bool
}

// compile resolves the triple patterns against d. Constant terms that are
// not in the dictionary make the query trivially empty (they cannot occur
// in any triple), which compile records rather than treating as an error.
// Variables are numbered by a linear scan: BGPs are small, and a name map
// would cost more to build than it saves.
func compile(patterns []rdf.Triple, d *dict.Dict) (compiled, error) {
	var c compiled
	if len(patterns) == 0 {
		return c, fmt.Errorf("engine: empty BGP")
	}
	mk := func(t rdf.Term) (slot, error) {
		if t.IsVar() {
			i := slices.Index(c.vars, t.Value)
			if i < 0 {
				if c.vars == nil {
					c.vars = make([]string, 0, 3*len(patterns))
				}
				i = len(c.vars)
				c.vars = append(c.vars, t.Value)
			}
			return slot{isVar: true, v: i}, nil
		}
		if t.IsZero() {
			return slot{}, fmt.Errorf("engine: zero term in pattern")
		}
		id, ok := d.Lookup(t)
		if !ok {
			c.impossible = true
			return slot{id: dict.None}, nil
		}
		return slot{id: id}, nil
	}
	c.patterns = make([]cpattern, len(patterns))
	for i, p := range patterns {
		s, err := mk(p.S)
		if err != nil {
			return compiled{}, err
		}
		pr, err := mk(p.P)
		if err != nil {
			return compiled{}, err
		}
		o, err := mk(p.O)
		if err != nil {
			return compiled{}, err
		}
		c.patterns[i] = cpattern{s: s, p: pr, o: o, idx: i}
	}
	return c, nil
}

// concrete returns the store pattern for cp under bindings b: constants and
// bound variables become IDs, unbound variables become wildcards.
func concrete(cp cpattern, b []dict.ID) store.Triple {
	get := func(s slot) dict.ID {
		if !s.isVar {
			return s.id
		}
		return b[s.v]
	}
	return store.Triple{S: get(cp.s), P: get(cp.p), O: get(cp.o)}
}

// bind matches triple t against cp, extending b; it returns false (leaving
// b partially updated — callers restore from undo) when a repeated variable
// or constant mismatches.
func bind(cp cpattern, t store.Triple, b []dict.ID, undo *[]int) bool {
	try := func(s slot, v dict.ID) bool {
		if !s.isVar {
			return s.id == v
		}
		if b[s.v] == dict.None {
			b[s.v] = v
			*undo = append(*undo, s.v)
			return true
		}
		return b[s.v] == v
	}
	return try(cp.s, t.S) && try(cp.p, t.P) && try(cp.o, t.O)
}

// PlanStep describes one step of a join plan (for -explain output).
type PlanStep struct {
	// PatternIndex is the position of the pattern in the original BGP.
	PatternIndex int
	// EstimatedCost is the optimizer's cardinality estimate when the step
	// was chosen.
	EstimatedCost int
}

// smallBGP bounds the patterns (and smallBGP×3 the variables) whose planning
// scratch lives in fixed-size stack arrays; larger BGPs fall back to the
// heap.
const smallBGP = 8

// scratch returns buf[:n] when it fits, else a fresh slice; buf must be
// zeroed (a fresh stack array).
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// plan orders patterns greedily into steps (reusing its backing array):
// repeatedly pick the cheapest pattern given the variables bound so far.
// The cost of a pattern is the source count with only constants bound,
// discounted for every position held by an already-bound variable (it will
// act as a constant at execution time).
func (c *compiled) plan(src Source, steps []PlanStep) []PlanStep {
	var remBuf [smallBGP]cpattern
	var boundBuf [3 * smallBGP]bool
	remaining := scratch(remBuf[:], len(c.patterns))
	copy(remaining, c.patterns)
	bound := scratch(boundBuf[:], len(c.vars))
	steps = steps[:0]
	for len(remaining) > 0 {
		best, bestCost := 0, -1
		for i, cp := range remaining {
			constPat := store.Triple{}
			if !cp.s.isVar {
				constPat.S = cp.s.id
			}
			if !cp.p.isVar {
				constPat.P = cp.p.id
			}
			if !cp.o.isVar {
				constPat.O = cp.o.id
			}
			cost := src.Count(constPat)
			// A bound variable behaves like a constant; assume it divides
			// the candidate set substantially. (Checked per position rather
			// than via a []slot temporary: this loop is O(patterns²) per
			// query and must not allocate.)
			if cp.s.isVar && bound[cp.s.v] {
				cost /= 4
			}
			if cp.p.isVar && bound[cp.p.v] {
				cost /= 4
			}
			if cp.o.isVar && bound[cp.o.v] {
				cost /= 4
			}
			cost++
			if bestCost < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		if chosen.s.isVar {
			bound[chosen.s.v] = true
		}
		if chosen.p.isVar {
			bound[chosen.p.v] = true
		}
		if chosen.o.isVar {
			bound[chosen.o.v] = true
		}
		steps = append(steps, PlanStep{PatternIndex: chosen.idx, EstimatedCost: bestCost})
	}
	return steps
}

// Result holds the answer rows of an evaluation, aligned with Vars;
// dict.None marks a projected variable the pattern does not bind. Vars is
// the projection the evaluation was given, shared with the query: treat it
// as read-only.
type Result struct {
	Vars []string
	Rows [][]dict.ID
}

// RowSet is a width-specialized set of binding rows: the dedup of
// Prepared's fused distinct, and of unions of prepared results. Rows are
// keyed on binary values rather than formatted text: widths one to three use
// fixed-size ID arrays as comparable map keys (no per-row allocation at
// all); other widths fall back to the raw little-endian bytes of the IDs as
// a string key (unambiguous, since all rows of one set have the same width,
// and costing one key allocation per distinct row). Reset empties the set
// but keeps the allocated buckets, so a reused set is allocation-free at
// steady state.
type RowSet struct {
	w      int
	seen1  map[dict.ID]struct{}
	seen2  map[[2]dict.ID]struct{}
	seen3  map[[3]dict.ID]struct{}
	seenN  map[string]struct{}
	keyBuf []byte
}

// NewRowSet returns a set for rows of width w, sized for about hint rows.
func NewRowSet(w, hint int) *RowSet {
	s := &RowSet{w: w}
	switch w {
	case 1:
		s.seen1 = make(map[dict.ID]struct{}, hint)
	case 2:
		s.seen2 = make(map[[2]dict.ID]struct{}, hint)
	case 3:
		s.seen3 = make(map[[3]dict.ID]struct{}, hint)
	default:
		s.seenN = make(map[string]struct{}, hint)
		s.keyBuf = make([]byte, 0, 4*w)
	}
	return s
}

// Add inserts the row, reporting whether it was new.
func (s *RowSet) Add(row []dict.ID) bool {
	switch s.w {
	case 1:
		if _, dup := s.seen1[row[0]]; dup {
			return false
		}
		s.seen1[row[0]] = struct{}{}
	case 2:
		k := [2]dict.ID{row[0], row[1]}
		if _, dup := s.seen2[k]; dup {
			return false
		}
		s.seen2[k] = struct{}{}
	case 3:
		k := [3]dict.ID{row[0], row[1], row[2]}
		if _, dup := s.seen3[k]; dup {
			return false
		}
		s.seen3[k] = struct{}{}
	default:
		buf := s.keyBuf[:0]
		for _, id := range row {
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		s.keyBuf = buf
		if _, dup := s.seenN[string(buf)]; dup {
			return false
		}
		s.seenN[string(buf)] = struct{}{}
	}
	return true
}

// Reset empties the set, retaining the buckets.
func (s *RowSet) Reset() {
	switch s.w {
	case 1:
		clear(s.seen1)
	case 2:
		clear(s.seen2)
	case 3:
		clear(s.seen3)
	default:
		clear(s.seenN)
	}
}

// Sort orders rows lexicographically by ID; evaluation order is otherwise
// nondeterministic (map iteration), so tests and reports sort first.
func (r *Result) Sort() *Result {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return r
}

// Decode resolves a result to terms through the dictionary.
func (r *Result) Decode(d *dict.Dict) [][]rdf.Term {
	out := make([][]rdf.Term, len(r.Rows))
	for i, row := range r.Rows {
		terms := make([]rdf.Term, len(row))
		for j, id := range row {
			if id != dict.None {
				terms[j], _ = d.Term(id)
			}
		}
		out[i] = terms
	}
	return out
}
