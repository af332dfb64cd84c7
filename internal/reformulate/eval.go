package reformulate

import (
	"repro/internal/dict"
	"repro/internal/engine"
)

// PreparedUCQ is a reformulated union with one prepared (compiled + planned)
// engine plan per branch, so a repeatedly-asked query pays the rewriting and
// planning once and each later execution only the join work. Build it with
// UCQ.Prepare; it is bound to the source and dictionary given there and must
// be rebuilt when the rewriting itself goes stale (schema change, vocabulary
// growth) — the caller owns that invalidation, since only it sees schema
// updates.
type PreparedUCQ struct {
	u         *UCQ
	proj      []string
	branches  []*engine.Prepared
	fixedCols [][]int
	fixedIDs  [][]dict.ID
	seen      *engine.RowSet // cross-branch dedup, reused across calls
}

// Prepare compiles every branch of the union against src and d.
func (u *UCQ) Prepare(src engine.Source, d *dict.Dict) (*PreparedUCQ, error) {
	n := len(u.Branches)
	pu := &PreparedUCQ{
		u:         u,
		proj:      u.Query.Projection(),
		branches:  make([]*engine.Prepared, 0, n),
		fixedCols: make([][]int, 0, n),
		fixedIDs:  make([][]dict.ID, 0, n),
	}
	for _, br := range u.Branches {
		p, err := engine.Prepare(src, br.Patterns, d)
		if err != nil {
			return nil, err
		}
		var cols []int
		var ids []dict.ID
		for i, v := range pu.proj {
			if t, ok := br.Fixed[v]; ok {
				if id, known := d.Lookup(t); known {
					cols = append(cols, i)
					ids = append(ids, id)
				}
			}
		}
		pu.branches = append(pu.branches, p)
		pu.fixedCols = append(pu.fixedCols, cols)
		pu.fixedIDs = append(pu.fixedIDs, ids)
	}
	return pu, nil
}

// Rebind points every branch plan at a different source — the next snapshot
// of the same evolving graph. This is the branch-level invalidation path for
// data-only mutations: the union itself (which depends only on the schema
// closure, the dictionary and — when VocabDependent — the data vocabulary)
// is kept, each branch keeps its compiled patterns and join plan, and a
// branch replans individually only when the new source's size has drifted
// past the engine's threshold. The caller remains responsible for rebuilding
// the whole union when the rewriting itself is stale.
func (pu *PreparedUCQ) Rebind(src engine.Source) {
	for _, p := range pu.branches {
		p.Rebind(src)
	}
}

// VocabDependent reports whether the underlying rewriting consulted the data
// graph's vocabulary (see UCQ.VocabDependent): if true, any data mutation may
// invalidate the union and Rebind alone is not sound.
func (pu *PreparedUCQ) VocabDependent() bool { return pu.u.VocabDependent }

// Evaluate runs every prepared branch and unions the answers,
// deduplicated over the original projection — q_ref(G) = q(G∞) of
// Section II-B, with variables fixed by the rewriting emitted as constant
// columns. Each branch evaluates with a fused projection+dedup, so only
// branch-distinct rows are materialised before the cross-branch dedup. With
// limit > 0 each branch stops after limit rows and the union after limit
// distinct rows, skipping the remaining branches: of a branch's first limit
// rows at most as many repeat earlier answers as the union already holds,
// so the truncation never loses an answer the union needs.
func (pu *PreparedUCQ) Evaluate(limit int) *engine.Result {
	if len(pu.branches) == 1 {
		return pu.evalBranch(0, limit) // one branch's rows are distinct already
	}
	out := &engine.Result{Vars: pu.proj}
	if pu.seen == nil {
		pu.seen = engine.NewRowSet(len(pu.proj), 16)
	} else {
		pu.seen.Reset()
	}
	for bi := range pu.branches {
		for _, row := range pu.evalBranch(bi, limit).Rows {
			if !pu.seen.Add(row) {
				continue
			}
			out.Rows = append(out.Rows, row)
			if len(out.Rows) == limit {
				return out
			}
		}
	}
	return out
}

// evalBranch runs branch bi and fills in the columns its rewriting fixed.
func (pu *PreparedUCQ) evalBranch(bi, limit int) *engine.Result {
	res := pu.branches[bi].EvalDistinct(pu.proj, limit)
	for _, row := range res.Rows {
		for k, col := range pu.fixedCols[bi] {
			row[col] = pu.fixedIDs[bi][k]
		}
	}
	return res
}
