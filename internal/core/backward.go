package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Backward answers queries by backward chaining at match time: the engine
// evaluates the original query against a virtual view of G∞ that derives
// entailed triples on demand from G and the closed schema. This mirrors the
// run-time reasoning of AllegroGraph's RDFS++ and Virtuoso's SPARQL
// inference (§II-C) — no materialisation, no query rewriting, inference
// interleaved with evaluation.
//
// The view reads an immutable store snapshot; a fresh view is swapped in
// after every mutation batch, so reads racing updates see a consistent G.
type Backward struct {
	kb   *KB
	data *store.Store

	// mu serializes mutation; cur is the immutable view readers use.
	mu  sync.Mutex
	cur atomic.Pointer[inferredView]
}

// NewBackward builds the strategy over a private copy of the KB's data.
func NewBackward(kb *KB) *Backward {
	b := &Backward{kb: kb, data: kb.base.Clone()}
	b.reindex()
	return b
}

// Name implements Strategy.
func (b *Backward) Name() string { return "backward" }

// reindex re-extracts the schema and publishes a fresh view. Writer-side.
func (b *Backward) reindex() {
	sch := schema.Extract(b.data, b.kb.voc)
	b.cur.Store(&inferredView{st: b.data.Snapshot(), sch: sch, voc: b.kb.voc})
}

// republish swaps in a view over the current data, keeping the schema of the
// previous view (no schema triple changed). Writer-side.
func (b *Backward) republish() {
	b.cur.Store(&inferredView{st: b.data.Snapshot(), sch: b.cur.Load().sch, voc: b.kb.voc})
}

// Answer implements Strategy: ordinary evaluation against the virtual view.
func (b *Backward) Answer(q *sparql.Query) (*engine.Result, error) { return answerOnce(b, q) }

// Ask implements Strategy.
func (b *Backward) Ask(q *sparql.Query) (bool, error) { return askOnce(b, q) }

// Insert implements Strategy: O(1) per instance triple, schema triples
// rebuild the (small) schema closure.
func (b *Backward) Insert(ts ...rdf.Triple) error {
	enc, err := encodeAll(b.kb, ts)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	schemaTouched := false
	for i, t := range enc {
		b.data.Add(t)
		if ts[i].IsSchema() {
			schemaTouched = true
		}
	}
	if schemaTouched {
		b.reindex()
	} else {
		b.republish()
	}
	return nil
}

// Delete implements Strategy.
func (b *Backward) Delete(ts ...rdf.Triple) error {
	enc, err := encodeAll(b.kb, ts)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	schemaTouched := false
	for i, t := range enc {
		if b.data.Remove(t) && ts[i].IsSchema() {
			schemaTouched = true
		}
	}
	if schemaTouched {
		b.reindex()
	} else {
		b.republish()
	}
	return nil
}

// Len implements Strategy: only |G| is stored.
func (b *Backward) Len() int { return b.cur.Load().st.Len() }

// DurableState implements DurableStrategy: backward chaining materialises
// nothing, so only the asserted triples are persisted.
func (b *Backward) DurableState() persist.State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return persist.State{
		Dict:    b.kb.dict,
		DictLen: b.kb.dict.Len(),
		Base:    b.data.Snapshot(),
	}
}

// Prepare implements Strategy: the compiled plan is cached against the
// current inferred view. The view is a plain Source (its matches are derived
// lazily, not stored sorted), so prepared backward queries get plan caching
// but no merge joins. Mutation batches swap the view; the prepared query
// follows data-only swaps with a cheap rebind (the engine replans on size
// drift) and replans from scratch when the schema changed.
func (b *Backward) Prepare(q *sparql.Query) (PreparedQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pq := &backPrepared{b: b, q: q, proj: q.Projection()}
	if err := pq.rebuild(b.cur.Load()); err != nil {
		return nil, err
	}
	return pq, nil
}

type backPrepared struct {
	b    *Backward
	q    *sparql.Query
	proj []string
	view *inferredView
	p    *engine.Prepared
}

func (pq *backPrepared) Query() *sparql.Query { return pq.q }

func (pq *backPrepared) rebuild(v *inferredView) error {
	p, err := engine.Prepare(v, pq.q.Patterns, pq.b.kb.dict)
	if err != nil {
		return err
	}
	pq.p = p
	pq.view = v
	return nil
}

// follow brings the plan up to the current view: a rebind after data-only
// swaps, a fresh plan after a schema change.
func (pq *backPrepared) follow() error {
	v := pq.b.cur.Load()
	if v == pq.view {
		return nil
	}
	if v.sch != pq.view.sch {
		return pq.rebuild(v)
	}
	pq.p.Rebind(v)
	pq.view = v
	return nil
}

func (pq *backPrepared) Answer() (*engine.Result, error) {
	if err := pq.follow(); err != nil {
		return nil, err
	}
	return pq.p.EvalDistinct(pq.proj, pq.q.Limit), nil
}

// Ask evaluates with an empty projection, which stops the join at the
// first match.
func (pq *backPrepared) Ask() (bool, error) {
	if err := pq.follow(); err != nil {
		return false, err
	}
	return len(pq.p.EvalDistinct(nil, 1).Rows) > 0, nil
}

var _ Strategy = (*Backward)(nil)

// inferredView is an engine.Source that behaves like G∞ without storing it.
// Each match call unions the explicit matches with the entailed ones
// reachable through the closed schema; a per-call set deduplicates triples
// derivable several ways. The view is immutable — it reads a store snapshot
// and a schema that are both frozen — so any number of evaluations may share
// it concurrently.
type inferredView struct {
	st  *store.Snapshot
	sch *schema.Schema
	voc schema.Vocab
}

var _ engine.Source = (*inferredView)(nil)

func (v *inferredView) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	emit := newDedupEmitter(pat, fn)
	switch {
	case pat.P == v.voc.Type:
		v.matchType(pat.S, pat.O, emit)
	case pat.P == dict.None:
		v.matchAnyPredicate(pat, emit)
	case v.voc.IsConstraintProperty(pat.P):
		v.matchSchema(pat, emit)
	default:
		v.matchProperty(pat.S, pat.P, pat.O, emit)
	}
}

// dedupEmitter suppresses duplicate triples and honours early stop.
type dedupEmitter struct {
	seen    map[store.Triple]struct{}
	fn      func(store.Triple) bool
	stopped bool
}

func newDedupEmitter(_ store.Triple, fn func(store.Triple) bool) *dedupEmitter {
	return &dedupEmitter{seen: map[store.Triple]struct{}{}, fn: fn}
}

func (e *dedupEmitter) emit(t store.Triple) {
	if e.stopped {
		return
	}
	if _, dup := e.seen[t]; dup {
		return
	}
	e.seen[t] = struct{}{}
	if !e.fn(t) {
		e.stopped = true
	}
}

// matchType enumerates (s rdf:type c) triples of G∞.
func (v *inferredView) matchType(s, c dict.ID, e *dedupEmitter) {
	if c != dict.None {
		// Explicit members of c and of its subclasses.
		classes := append([]dict.ID{c}, v.sch.SubClasses(c)...)
		for _, cls := range classes {
			v.st.ForEachMatch(store.Triple{P: v.voc.Type, O: cls, S: s}, func(t store.Triple) bool {
				e.emit(store.Triple{S: t.S, P: v.voc.Type, O: c})
				return !e.stopped
			})
			if e.stopped {
				return
			}
		}
		// Members via domain constraints: (x p y) with p domain c ⇒ x : c.
		for _, p := range v.sch.PropertiesWithDomain(c) {
			v.st.ForEachMatch(store.Triple{S: s, P: p}, func(t store.Triple) bool {
				e.emit(store.Triple{S: t.S, P: v.voc.Type, O: c})
				return !e.stopped
			})
			if e.stopped {
				return
			}
		}
		// Members via range constraints: (x p y) with p range c ⇒ y : c.
		for _, p := range v.sch.PropertiesWithRange(c) {
			v.st.ForEachMatch(store.Triple{P: p, O: s}, func(t store.Triple) bool {
				e.emit(store.Triple{S: t.O, P: v.voc.Type, O: c})
				return !e.stopped
			})
			if e.stopped {
				return
			}
		}
		return
	}
	// Class unbound: derive all types of the matching subjects.
	v.st.ForEachMatch(store.Triple{S: s, P: v.voc.Type}, func(t store.Triple) bool {
		e.emit(t)
		for _, sup := range v.sch.SuperClasses(t.O) {
			e.emit(store.Triple{S: t.S, P: v.voc.Type, O: sup})
			if e.stopped {
				return false
			}
		}
		return !e.stopped
	})
	if e.stopped {
		return
	}
	// Types induced by domain/range of properties on s (or on anything when
	// s is unbound). Closed schema makes Domains/Ranges complete.
	v.st.ForEachMatch(store.Triple{S: s}, func(t store.Triple) bool {
		for _, c := range v.sch.Domains(t.P) {
			e.emit(store.Triple{S: t.S, P: v.voc.Type, O: c})
			if e.stopped {
				return false
			}
		}
		return true
	})
	if e.stopped {
		return
	}
	// Range-induced types: object position. When s is bound we scan its
	// incoming edges; when unbound, all triples.
	v.st.ForEachMatch(store.Triple{O: s}, func(t store.Triple) bool {
		for _, c := range v.sch.Ranges(t.P) {
			e.emit(store.Triple{S: t.O, P: v.voc.Type, O: c})
			if e.stopped {
				return false
			}
		}
		return true
	})
}

// matchProperty enumerates (s p o) triples of G∞ for a regular property p:
// explicit matches plus matches of every subproperty, re-labelled as p.
func (v *inferredView) matchProperty(s, p, o dict.ID, e *dedupEmitter) {
	props := append([]dict.ID{p}, v.sch.SubProperties(p)...)
	for _, sub := range props {
		v.st.ForEachMatch(store.Triple{S: s, P: sub, O: o}, func(t store.Triple) bool {
			e.emit(store.Triple{S: t.S, P: p, O: t.O})
			return !e.stopped
		})
		if e.stopped {
			return
		}
	}
}

// matchSchema serves constraint-property patterns from the closed schema.
func (v *inferredView) matchSchema(pat store.Triple, e *dedupEmitter) {
	emitPairs := func(p dict.ID, pairs func() [][2]dict.ID) {
		for _, pr := range pairs() {
			e.emit(store.Triple{S: pr[0], P: p, O: pr[1]})
			if e.stopped {
				return
			}
		}
	}
	switch pat.P {
	case v.voc.SubClassOf:
		emitPairs(pat.P, func() [][2]dict.ID { return v.hierPairs(pat, v.sch.Classes(), v.sch.SuperClasses, v.sch.SubClasses) })
	case v.voc.SubPropertyOf:
		emitPairs(pat.P, func() [][2]dict.ID {
			return v.hierPairs(pat, v.sch.Properties(), v.sch.SuperProperties, v.sch.SubProperties)
		})
	case v.voc.Domain:
		emitPairs(pat.P, func() [][2]dict.ID { return v.constraintPairs(pat, v.sch.Domains, v.sch.PropertiesWithDomain) })
	case v.voc.Range:
		emitPairs(pat.P, func() [][2]dict.ID { return v.constraintPairs(pat, v.sch.Ranges, v.sch.PropertiesWithRange) })
	}
}

func (v *inferredView) hierPairs(pat store.Triple, all []dict.ID, ups, downs func(dict.ID) []dict.ID) [][2]dict.ID {
	var out [][2]dict.ID
	switch {
	case pat.S != dict.None:
		for _, o := range ups(pat.S) {
			if pat.O == dict.None || pat.O == o {
				out = append(out, [2]dict.ID{pat.S, o})
			}
		}
	case pat.O != dict.None:
		for _, s := range downs(pat.O) {
			out = append(out, [2]dict.ID{s, pat.O})
		}
	default:
		for _, s := range all {
			for _, o := range ups(s) {
				out = append(out, [2]dict.ID{s, o})
			}
		}
	}
	return out
}

func (v *inferredView) constraintPairs(pat store.Triple, of func(dict.ID) []dict.ID, with func(dict.ID) []dict.ID) [][2]dict.ID {
	var out [][2]dict.ID
	switch {
	case pat.S != dict.None:
		for _, c := range of(pat.S) {
			if pat.O == dict.None || pat.O == c {
				out = append(out, [2]dict.ID{pat.S, c})
			}
		}
	case pat.O != dict.None:
		for _, p := range with(pat.O) {
			out = append(out, [2]dict.ID{p, pat.O})
		}
	default:
		for _, p := range v.sch.Properties() {
			for _, c := range of(p) {
				out = append(out, [2]dict.ID{p, c})
			}
		}
	}
	return out
}

// matchAnyPredicate handles patterns with an unbound predicate: the union
// over rdf:type, every data property, and the four constraint properties.
func (v *inferredView) matchAnyPredicate(pat store.Triple, e *dedupEmitter) {
	v.matchType(pat.S, pat.O, e)
	if e.stopped {
		return
	}
	// Candidate properties: those used in G plus those of the schema (a
	// subproperty may only appear in the schema yet label entailed triples
	// — no: entailed triples use *super*properties, which the schema
	// knows; explicit triples use G's predicates).
	cands := map[dict.ID]struct{}{}
	for _, p := range v.st.Predicates() {
		cands[p] = struct{}{}
	}
	for _, p := range v.sch.Properties() {
		cands[p] = struct{}{}
	}
	for p := range cands {
		if p == v.voc.Type || v.voc.IsConstraintProperty(p) {
			continue
		}
		v.matchProperty(pat.S, p, pat.O, e)
		if e.stopped {
			return
		}
	}
	for _, p := range []dict.ID{v.voc.SubClassOf, v.voc.SubPropertyOf, v.voc.Domain, v.voc.Range} {
		v.matchSchema(store.Triple{S: pat.S, P: p, O: pat.O}, e)
		if e.stopped {
			return
		}
	}
}

// Count gives the optimizer a cheap overestimate: explicit matches plus the
// explicit counts of the one-step expansions.
func (v *inferredView) Count(pat store.Triple) int {
	n := v.st.Count(pat)
	switch {
	case pat.P == v.voc.Type && pat.O != dict.None:
		for _, c := range v.sch.SubClasses(pat.O) {
			n += v.st.Count(store.Triple{S: pat.S, P: v.voc.Type, O: c})
		}
		for _, p := range v.sch.PropertiesWithDomain(pat.O) {
			n += v.st.Count(store.Triple{S: pat.S, P: p})
		}
		for _, p := range v.sch.PropertiesWithRange(pat.O) {
			n += v.st.Count(store.Triple{P: p, O: pat.S})
		}
	case pat.P != dict.None && !v.voc.IsConstraintProperty(pat.P) && pat.P != v.voc.Type:
		for _, sub := range v.sch.SubProperties(pat.P) {
			n += v.st.Count(store.Triple{S: pat.S, P: sub, O: pat.O})
		}
	case pat.P == dict.None:
		// Wildcard predicate: assume inference roughly doubles matches.
		n *= 2
	default:
		n += v.sch.Size()
	}
	return n
}
