package reason

import (
	"repro/internal/store"
)

// Counting is the derivation-counting truth-maintenance alternative to DRed,
// the "naive practical approach" of Broekstra & Kampman [11] that the paper
// cites for saturation maintenance. Each triple carries the number of
// distinct one-step rule instantiations that conclude it, plus one unit of
// support when it is explicitly asserted; a deletion decrements supports and
// cascades when a count reaches zero.
//
// Counting is faster than DRed on deletions (no re-derivation pass) but is
// only sound when the derivation graph is acyclic: triples on a support
// cycle (e.g. c1 ⊑ c2 ⊑ c1) keep each other alive. The benchmark suite (E7)
// measures both; the property tests cross-check Counting against full
// resaturation on the acyclic LUBM-style ontologies where it applies.
type Counting struct {
	st    *store.Store
	rules []Rule

	base map[store.Triple]struct{}
	sc   scratch // reusable binding buffers for the join hot path
	// derivations[t] = number of distinct rule instantiations over the
	// current store concluding t.
	derivations map[store.Triple]int
	// seq stamps triples with the order they became present; it is used to
	// count each instantiation exactly once during insert propagation.
	seq     map[store.Triple]int
	nextSeq int

	// Stats mirrors Materialization.Stats for the most recent operation.
	Stats Stats
}

// MaterializeCounting saturates g under rules, tracking derivation counts.
func MaterializeCounting(g *store.Store, rules []Rule) *Counting {
	c := &Counting{
		st:          store.New(),
		rules:       rules,
		base:        make(map[store.Triple]struct{}, g.Len()),
		derivations: make(map[store.Triple]int),
		seq:         make(map[store.Triple]int, g.Len()),
	}
	var delta []store.Triple
	g.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		c.base[t] = struct{}{}
		c.st.Add(t)
		c.seq[t] = c.nextSeq
		c.nextSeq++
		delta = append(delta, t)
		return true
	})
	c.Stats = Stats{}
	c.propagate(delta)
	return c
}

// Store exposes the saturated store; callers must not mutate it directly.
func (c *Counting) Store() *store.Store { return c.st }

// IsBase reports whether t is explicitly asserted.
func (c *Counting) IsBase(t store.Triple) bool {
	_, ok := c.base[t]
	return ok
}

// BaseLen returns |G|, DerivedLen |G∞|−|G|.
func (c *Counting) BaseLen() int    { return len(c.base) }
func (c *Counting) DerivedLen() int { return c.st.Len() - len(c.base) }

// DerivationCount returns the current number of one-step derivations of t.
func (c *Counting) DerivationCount(t store.Triple) int { return c.derivations[t] }

// propagate performs counted semi-naive insertion from delta. For each new
// triple t and each rule, instantiations are counted from t's premise
// position only when the partner triple became present no later than t
// (strictly earlier when t sits in the second position), so every
// instantiation is counted exactly once no matter how many of its premises
// are new.
func (c *Counting) propagate(delta []store.Triple) {
	for len(delta) > 0 {
		c.Stats.Rounds++
		var next []store.Triple
		for _, t := range delta {
			st := c.seq[t]
			for ri := range c.rules {
				r := &c.rules[ri]
				for pos := 0; pos < 2; pos++ {
					forEachInstantiation(c.st, r, pos, t, &c.sc, func(conc, partner store.Triple) {
						sp := c.seq[partner]
						// Count the instantiation from the premise with the
						// larger stamp; on equal stamps (partner == t) from
						// position 0 only.
						if sp > st || (sp == st && pos == 1) {
							return
						}
						c.derivations[conc]++
						if c.st.Add(conc) {
							c.Stats.Derived++
							c.seq[conc] = c.nextSeq
							c.nextSeq++
							next = append(next, conc)
						}
					})
				}
			}
		}
		delta = next
	}
}

// Insert adds base triples, maintaining counts. Returns how many were new
// base facts.
func (c *Counting) Insert(ts ...store.Triple) int {
	c.Stats = Stats{}
	var delta []store.Triple
	added := 0
	for _, t := range ts {
		if _, ok := c.base[t]; ok {
			continue
		}
		c.base[t] = struct{}{}
		added++
		if c.st.Add(t) {
			c.seq[t] = c.nextSeq
			c.nextSeq++
			delta = append(delta, t)
		}
	}
	c.propagate(delta)
	return added
}

// Delete retracts base triples. A triple disappears when it is neither base
// nor supported by any derivation; disappearing triples decrement the
// counts of everything they helped derive, processed one at a time so each
// dead instantiation is decremented exactly once.
func (c *Counting) Delete(ts ...store.Triple) int {
	c.Stats = Stats{}
	removed := 0
	var queue []store.Triple
	for _, t := range ts {
		if _, ok := c.base[t]; !ok {
			continue
		}
		delete(c.base, t)
		removed++
		if c.derivations[t] == 0 {
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if !c.st.Contains(t) {
			continue
		}
		// t dies now. Remove it first so later deaths do not re-enumerate
		// instantiations involving it.
		c.st.Remove(t)
		delete(c.seq, t)
		c.Stats.Overdeleted++
		for ri := range c.rules {
			r := &c.rules[ri]
			for pos := 0; pos < 2; pos++ {
				forEachInstantiation(c.st, r, pos, t, &c.sc, func(conc, _ store.Triple) {
					if !c.st.Contains(conc) {
						return
					}
					c.derivations[conc]--
					if c.derivations[conc] <= 0 {
						delete(c.derivations, conc)
						if _, isBase := c.base[conc]; !isBase {
							queue = append(queue, conc)
						}
					}
				})
			}
		}
		delete(c.derivations, t)
	}
	return removed
}
