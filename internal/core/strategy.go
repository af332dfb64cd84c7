package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Strategy is a query-answering technique: it computes the certain answer
// set q(G∞) of BGP queries and maintains whatever it materialises when the
// graph is updated. The three implementations mirror §II-B/§II-C of the
// paper.
// All three implementations follow a single-writer, multi-reader concurrency
// model: Answer, Ask and Prepare route every read through an immutable
// current-state pointer (store snapshots plus whatever derived structures the
// technique keeps) that Insert/Delete swap atomically after each mutation
// batch, so reads racing a mutation observe either the state before the whole
// batch or after it, never a torn middle. Mutation calls themselves are
// serialized internally; readers never block writers and vice versa.
type Strategy interface {
	// Name identifies the technique in reports.
	Name() string
	// Answer returns the answer set of q with respect to RDF entailment:
	// the evaluation of q against G∞, deduplicated over the projection
	// (certain-answer semantics; a LIMIT stops evaluation once that many
	// distinct rows exist).
	Answer(q *sparql.Query) (*engine.Result, error)
	// Ask reports whether the query pattern has any answer against G∞.
	Ask(q *sparql.Query) (bool, error)
	// Insert asserts base triples.
	Insert(ts ...rdf.Triple) error
	// Delete retracts base triples.
	Delete(ts ...rdf.Triple) error
	// Len returns the number of triples the strategy stores physically
	// (|G∞| for saturation, |G| plus the closed schema for the others).
	Len() int
	// Prepare compiles q into a PreparedQuery whose plans are cached across
	// executions — the paper's repeated-query regime, where planning and
	// (for reformulation) rewriting are paid once. The prepared query reads
	// the strategy's data live and revalidates its cached plans
	// automatically, so it stays correct across Insert/Delete.
	Prepare(q *sparql.Query) (PreparedQuery, error)
}

// DurableStrategy is implemented by strategies whose state can be
// checkpointed by the persistence layer. DurableState must be called from
// the strategy's (serialized) mutation side — in serving deployments, the
// server's single writer goroutine at a mutation-batch boundary — and
// returns O(1) copy-on-write views: capturing a checkpoint never stalls
// reads or subsequent writes, the serialisation happens later against the
// frozen views. All three built-in strategies implement it.
type DurableStrategy interface {
	Strategy
	// DurableState captures the strategy's persistent state: the asserted
	// triples (always) and the saturated store (when materialised), plus the
	// dictionary length as of the same boundary.
	DurableState() persist.State
}

// PreparedQuery is a query compiled against one strategy for repeated
// execution. Answer and Ask match the Strategy methods of the same name;
// cached plans are revalidated transparently (dictionary growth, schema
// updates), so results always reflect the strategy's current data. A
// PreparedQuery is not safe for concurrent use; results it returns are
// independent snapshots and remain valid.
type PreparedQuery interface {
	// Query returns the source query.
	Query() *sparql.Query
	// Answer executes the prepared query; see Strategy.Answer.
	Answer() (*engine.Result, error)
	// Ask reports whether the prepared query has any answer.
	Ask() (bool, error)
}

// answerOnce and askOnce run a one-off query the way every read runs:
// prepare it against the strategy's current state, then execute it once.
func answerOnce(s Strategy, q *sparql.Query) (*engine.Result, error) {
	pq, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return pq.Answer()
}

func askOnce(s Strategy, q *sparql.Query) (bool, error) {
	pq, err := s.Prepare(q)
	if err != nil {
		return false, err
	}
	return pq.Ask()
}

// encodeAll converts term triples for a strategy, validating well-formedness.
func encodeAll(kb *KB, ts []rdf.Triple) ([]store.Triple, error) {
	out := make([]store.Triple, 0, len(ts))
	for _, t := range ts {
		if err := t.WellFormed(); err != nil {
			return nil, err
		}
		out = append(out, kb.Encode(t))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Saturation strategy
// ---------------------------------------------------------------------------

// Saturation answers queries by direct evaluation against the materialised
// closure G∞, maintained incrementally on updates (semi-naive insertion,
// DRed deletion). This is the forward-chaining camp of §II-C (OWLIM, Oracle,
// Jena/Sesame persistent inferencing).
//
// Reads evaluate against an immutable snapshot of G∞ swapped in after every
// maintenance batch, so Answer/Ask/Prepare are safe to call concurrently
// with (serialized) Insert/Delete.
type Saturation struct {
	kb  *KB
	mat *reason.Materialization

	// mu serializes maintenance; cur is the snapshot of G∞ readers use.
	mu  sync.Mutex
	cur atomic.Pointer[store.Snapshot]
}

// NewSaturation materialises the KB's closure. The KB's base store is
// copied; later updates must go through this strategy.
func NewSaturation(kb *KB) *Saturation {
	s := &Saturation{kb: kb, mat: reason.Materialize(kb.base, kb.rules)}
	s.cur.Store(s.mat.Store().Snapshot())
	return s
}

// NewSaturationRestored rebuilds a saturation strategy from a recovered
// snapshot, skipping re-saturation entirely: base is the set of asserted
// triples G and saturated its closure under the KB's rules (the persistence
// layer guarantees the pair, having checkpointed them together at a batch
// boundary). The strategy takes ownership of both; the KB contributes only
// dictionary, vocabulary and rules — its own base store plays no role in a
// restored materialisation.
func NewSaturationRestored(kb *KB, base *store.TripleSet, saturated *store.Store) *Saturation {
	s := &Saturation{kb: kb, mat: reason.Restore(base, saturated, kb.rules)}
	s.cur.Store(s.mat.Store().Snapshot())
	return s
}

// Name implements Strategy.
func (s *Saturation) Name() string { return "saturation" }

// Materialization exposes the underlying materialisation (stats, explain).
// Unlike the query path it is not snapshot-isolated: callers must not race
// it with Insert/Delete.
func (s *Saturation) Materialization() *reason.Materialization { return s.mat }

// Answer implements Strategy by plain evaluation on the current G∞ snapshot.
func (s *Saturation) Answer(q *sparql.Query) (*engine.Result, error) { return answerOnce(s, q) }

// Ask implements Strategy.
func (s *Saturation) Ask(q *sparql.Query) (bool, error) { return askOnce(s, q) }

// Insert implements Strategy with incremental saturation maintenance. The
// whole batch becomes visible to readers at once, when the post-maintenance
// snapshot is swapped in.
func (s *Saturation) Insert(ts ...rdf.Triple) error {
	enc, err := encodeAll(s.kb, ts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mat.Insert(enc...)
	s.cur.Store(s.mat.Store().Snapshot())
	return nil
}

// Delete implements Strategy with DRed maintenance.
func (s *Saturation) Delete(ts ...rdf.Triple) error {
	enc, err := encodeAll(s.kb, ts)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mat.Delete(enc...)
	s.cur.Store(s.mat.Store().Snapshot())
	return nil
}

// Len implements Strategy: the size of G∞ (as of the current snapshot).
func (s *Saturation) Len() int { return s.cur.Load().Len() }

// Prepare implements Strategy: the compiled plan evaluates against the
// strategy's current snapshot with a fused projection+dedup, so steady-state
// execution allocates only the result rows. Each execution rebinds the plan
// to the latest snapshot (a pointer swap when nothing changed); the engine
// revalidates the plan on dictionary growth or >2x data-size drift.
func (s *Saturation) Prepare(q *sparql.Query) (PreparedQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p, err := engine.Prepare(s.cur.Load(), q.Patterns, s.kb.dict)
	if err != nil {
		return nil, err
	}
	return &satPrepared{s: s, q: q, proj: q.Projection(), p: p}, nil
}

// DurableState implements DurableStrategy: the asserted set and the
// saturated closure, both as O(1) COW snapshots, so a restart restores G and
// G∞ without re-running saturation. The base goes into the snapshot as a
// single-index set image — a third of a full store's bytes and load work,
// matching what the materialisation actually keeps.
func (s *Saturation) DurableState() persist.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return persist.State{
		Dict:      s.kb.dict,
		DictLen:   s.kb.dict.Len(),
		BaseSet:   s.mat.BaseSet().Snapshot(),
		Saturated: s.mat.Store().Snapshot(),
	}
}

type satPrepared struct {
	s    *Saturation
	q    *sparql.Query
	proj []string
	p    *engine.Prepared
}

func (pq *satPrepared) Query() *sparql.Query { return pq.q }

func (pq *satPrepared) Answer() (*engine.Result, error) {
	pq.p.Rebind(pq.s.cur.Load())
	return pq.p.EvalDistinct(pq.proj, pq.q.Limit), nil
}

// Ask evaluates with an empty projection, which stops the join at the
// first match.
func (pq *satPrepared) Ask() (bool, error) {
	pq.p.Rebind(pq.s.cur.Load())
	return len(pq.p.EvalDistinct(nil, 1).Rows) > 0, nil
}

// ---------------------------------------------------------------------------
// Reformulation strategy
// ---------------------------------------------------------------------------

// Reformulation leaves the data untouched and rewrites queries at run time;
// only the (small) schema closure is maintained, stored in an overlay so
// instance updates cost O(1). This is the approach of [12], [19], [20].
//
// Reads (rewriting and evaluation) run against an immutable refState —
// snapshots of data and overlay plus the schema they imply — swapped in
// after every mutation batch.
type Reformulation struct {
	kb *KB
	// data holds the asserted triples (the strategy's private copy of G).
	data *store.Store
	// schemaOverlay holds closed-schema triples not asserted in data, so
	// data ∪ overlay is G with closed schema and no duplicates.
	schemaOverlay *store.Store
	sch           *schema.Schema
	opt           reformulate.Options
	// schemaGen counts schema reclosures; prepared queries compare it (plus
	// the published state pointer and the dictionary version) to pick
	// between branch-level rebinding and a full re-reformulation.
	schemaGen uint64

	// mu serializes mutation; cur is the immutable state readers use.
	mu  sync.Mutex
	cur atomic.Pointer[refState]
}

// refState is one immutable read epoch of the reformulation strategy. A
// fresh pointer is published after every mutation batch, so pointer
// equality means "nothing changed"; schemaGen distinguishes data-only
// batches (same schemaGen) from schema reclosures.
type refState struct {
	src       *unionSource
	sch       *schema.Schema
	schemaGen uint64
}

// NewReformulation builds the strategy; opt tunes the rewriting (zero value
// = defaults).
func NewReformulation(kb *KB, opt reformulate.Options) *Reformulation {
	r := &Reformulation{kb: kb, data: kb.base.Clone(), opt: opt}
	r.recloseSchema()
	r.publish()
	return r
}

// Name implements Strategy.
func (r *Reformulation) Name() string { return "reformulation" }

// recloseSchema recomputes the schema closure overlay; called after any
// schema-triple update (cheap: schemas are small). Writer-side only.
func (r *Reformulation) recloseSchema() {
	overlay := store.New()
	sch := schema.Extract(r.data, r.kb.voc)
	for _, t := range sch.ClosureTriples() {
		if !r.data.Contains(t) {
			overlay.Add(t)
		}
	}
	r.schemaOverlay = overlay
	// The schema used for rewriting must be the closed one, extracted over
	// data + overlay.
	r.sch = schema.Extract(&unionSource{a: r.data, b: overlay}, r.kb.voc)
	r.schemaGen++
}

// publish swaps in a fresh read state reflecting the writer's current data,
// overlay and schema. Writer-side only.
func (r *Reformulation) publish() {
	r.cur.Store(&refState{
		src:       &unionSource{a: r.data.Snapshot(), b: r.schemaOverlay.Snapshot()},
		sch:       r.sch,
		schemaGen: r.schemaGen,
	})
}

// Reformulate exposes the rewriting of q (for -explain and experiment E6).
func (r *Reformulation) Reformulate(q *sparql.Query) (*reformulate.UCQ, error) {
	st := r.cur.Load()
	return reformulate.Reformulate(q, st.sch, r.kb.dict, st.src, r.opt)
}

// Answer implements Strategy: rewrite, then evaluate the union on G. The
// prepared union revalidates against the current state before it runs, so
// rewriting and evaluation always see the same immutable state.
func (r *Reformulation) Answer(q *sparql.Query) (*engine.Result, error) { return answerOnce(r, q) }

// Ask implements Strategy.
func (r *Reformulation) Ask(q *sparql.Query) (bool, error) { return askOnce(r, q) }

// Insert implements Strategy: O(1) per instance triple; schema triples
// additionally re-close the (small) schema.
func (r *Reformulation) Insert(ts ...rdf.Triple) error {
	enc, err := encodeAll(r.kb, ts)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	schemaTouched := false
	for i, t := range enc {
		r.data.Add(t)
		if ts[i].IsSchema() {
			schemaTouched = true
		}
	}
	if schemaTouched {
		r.recloseSchema()
	}
	r.publish()
	return nil
}

// Delete implements Strategy.
func (r *Reformulation) Delete(ts ...rdf.Triple) error {
	enc, err := encodeAll(r.kb, ts)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	schemaTouched := false
	for i, t := range enc {
		if r.data.Remove(t) && ts[i].IsSchema() {
			schemaTouched = true
		}
	}
	if schemaTouched {
		r.recloseSchema()
	}
	r.publish()
	return nil
}

// Len implements Strategy: |G| plus the schema-closure overlay.
func (r *Reformulation) Len() int { return r.cur.Load().src.Count(store.Triple{}) }

// Prepare implements Strategy: the rewriting and the per-branch plans of the
// union are cached across executions with two invalidation tiers. A schema
// change, dictionary growth, or — for rewritings that instantiated
// class/property variables against the data vocabulary — any mutation
// rebuilds the union from scratch, exactly as before. A data-only mutation
// under a vocabulary-independent rewriting (the common case: all workload
// queries with constant classes and properties) keeps the union and every
// branch plan, merely rebinding the branches to the new snapshot; each
// branch replans individually only when the data size drifts past the
// engine's threshold. That closes the "reformulation rebuilds its whole
// prepared union on any mutation" gap: update-heavy workloads pay one
// pointer swap per branch instead of a full rewrite.
func (r *Reformulation) Prepare(q *sparql.Query) (PreparedQuery, error) {
	pq := &refPrepared{r: r, q: q} // rebuild's rewriting validates q
	if err := pq.rebuild(r.cur.Load()); err != nil {
		return nil, err
	}
	return pq, nil
}

// DurableState implements DurableStrategy. Only the asserted triples are
// persisted: the schema-closure overlay is derived state that restore
// recomputes (it is small by the paper's DB-fragment assumption).
func (r *Reformulation) DurableState() persist.State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return persist.State{
		Dict:    r.kb.dict,
		DictLen: r.kb.dict.Len(),
		Base:    r.data.Snapshot(),
	}
}

// RefPlanStats counts reformulation prepared-union lifecycle events:
// full re-reformulations (rebuild) and cheap branch-level rebinds. Exposed
// by the server's metrics registry alongside engine.PlanStats.
var RefPlanStats struct {
	Rebuilt atomic.Uint64
	Rebound atomic.Uint64
}

type refPrepared struct {
	r    *Reformulation
	q    *sparql.Query
	st   *refState // state the cached union was built (or last rebound) against
	dver uint64
	pu   *reformulate.PreparedUCQ
}

func (pq *refPrepared) Query() *sparql.Query { return pq.q }

// rebuild re-reformulates and re-prepares the union against the given state
// and the current dictionary. The dictionary version is read BEFORE the
// rewriting: a concurrent writer may coin terms while we rebuild, and
// stamping the older version merely costs one extra rebuild on the next
// execution, whereas stamping the newer one would mark growth we never saw
// as already-handled and skip a required rebuild forever.
func (pq *refPrepared) rebuild(st *refState) error {
	RefPlanStats.Rebuilt.Add(1)
	dver := pq.r.kb.dict.Version()
	ucq, err := reformulate.Reformulate(pq.q, st.sch, pq.r.kb.dict, st.src, pq.r.opt)
	if err != nil {
		return err
	}
	pu, err := ucq.Prepare(st.src, pq.r.kb.dict)
	if err != nil {
		return err
	}
	pq.pu = pu
	pq.st = st
	pq.dver = dver
	return nil
}

// revalidate brings the cached union up to date with the strategy's current
// state: no-op at steady state, branch-level rebind after data-only
// mutations, full rebuild otherwise (see Prepare).
func (pq *refPrepared) revalidate() error {
	st := pq.r.cur.Load()
	dver := pq.r.kb.dict.Version()
	if st == pq.st && dver == pq.dver {
		return nil
	}
	if dver == pq.dver && st.schemaGen == pq.st.schemaGen && !pq.pu.VocabDependent() {
		RefPlanStats.Rebound.Add(1)
		pq.pu.Rebind(st.src)
		pq.st = st
		return nil
	}
	return pq.rebuild(st)
}

func (pq *refPrepared) Answer() (*engine.Result, error) {
	if err := pq.revalidate(); err != nil {
		return nil, err
	}
	return pq.pu.Evaluate(pq.q.Limit), nil
}

// Ask stops at the first answer, skipping the union's later branches.
func (pq *refPrepared) Ask() (bool, error) {
	if err := pq.revalidate(); err != nil {
		return false, err
	}
	return len(pq.pu.Evaluate(1).Rows) > 0, nil
}

// storeView is the read-only store surface shared by *store.Store and
// *store.Snapshot that composite sources build on: what the engine needs to
// evaluate plus what reformulation needs to enumerate the vocabulary.
type storeView interface {
	engine.Source
	reformulate.VocabularySource
}

// unionSource exposes two disjoint store views as one engine.Source /
// reformulate.VocabularySource.
type unionSource struct {
	a, b storeView
}

func (u *unionSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	stopped := false
	u.a.ForEachMatch(pat, func(t store.Triple) bool {
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	u.b.ForEachMatch(pat, fn)
}

func (u *unionSource) Count(pat store.Triple) int {
	return u.a.Count(pat) + u.b.Count(pat)
}

func (u *unionSource) Predicates() []dict.ID {
	set := map[dict.ID]struct{}{}
	for _, p := range u.a.Predicates() {
		set[p] = struct{}{}
	}
	for _, p := range u.b.Predicates() {
		set[p] = struct{}{}
	}
	out := make([]dict.ID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	return out
}

func (u *unionSource) Objects(p dict.ID) []dict.ID {
	set := map[dict.ID]struct{}{}
	for _, o := range u.a.Objects(p) {
		set[o] = struct{}{}
	}
	for _, o := range u.b.Objects(p) {
		set[o] = struct{}{}
	}
	out := make([]dict.ID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	return out
}

// interface checks
var (
	_ Strategy                     = (*Saturation)(nil)
	_ Strategy                     = (*Reformulation)(nil)
	_ DurableStrategy              = (*Saturation)(nil)
	_ DurableStrategy              = (*Reformulation)(nil)
	_ DurableStrategy              = (*Backward)(nil)
	_ engine.Source                = (*unionSource)(nil)
	_ reformulate.VocabularySource = (*unionSource)(nil)
)

// PlainAnswer evaluates q against the asserted triples only, ignoring
// entailment — the plain "query evaluation" that the paper's motivation
// contrasts with query answering, and the baseline showing how many answers
// each workload query loses without reasoning.
func PlainAnswer(kb *KB, q *sparql.Query) (*engine.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p, err := engine.Prepare(kb.base, q.Patterns, kb.dict)
	if err != nil {
		return nil, err
	}
	return p.EvalDistinct(q.Projection(), q.Limit), nil
}

// NewStrategy builds a strategy by name ("saturation", "reformulation",
// "backward"), the switch used by cmd/rdfquery.
func NewStrategy(name string, kb *KB) (Strategy, error) {
	switch name {
	case "saturation":
		return NewSaturation(kb), nil
	case "reformulation":
		return NewReformulation(kb, reformulate.Options{}), nil
	case "backward":
		return NewBackward(kb), nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want saturation, reformulation or backward)", name)
	}
}

// RestoreStrategy builds the named strategy from snapshot-recovered state,
// returning the KB it was built on. The fast path — a saturation snapshot
// restored as the saturation strategy — starts serving without re-running
// saturation (and without a full base store: the KB then carries only
// dictionary, vocabulary and rules). Cross-strategy restores convert: a
// saturation snapshot restored as reformulation/backward rebuilds the full
// G store from the base set, and a G-only snapshot restored as saturation
// re-saturates, exactly as a fresh build would.
func RestoreStrategy(name string, ls *persist.LoadedState) (*KB, Strategy, error) {
	base := ls.Base
	if base == nil && !(name == "saturation" && ls.Saturated != nil) {
		base = store.New()
		ls.BaseSet.ForEach(func(t store.Triple) bool { base.Add(t); return true })
	}
	kb := RestoreKB(ls.Dict, base)
	if name == "saturation" && ls.Saturated != nil {
		baseSet := ls.BaseSet
		if baseSet == nil {
			baseSet = store.NewTripleSet()
			ls.Base.ForEachMatch(store.Triple{}, func(t store.Triple) bool { baseSet.Add(t); return true })
		}
		return kb, NewSaturationRestored(kb, baseSet, ls.Saturated), nil
	}
	s, err := NewStrategy(name, kb)
	return kb, s, err
}
