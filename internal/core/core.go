// Package core assembles the paper's contribution as a library: query
// answering over semantic-rich RDF graphs, with the reasoning decoupled
// from evaluation in the three ways the tutorial surveys —
//
//   - Saturation (forward chaining, OWLIM/Oracle style): materialise G∞
//     once, evaluate queries directly, maintain the closure under updates;
//   - Reformulation ([12]/[19] style): leave G untouched, rewrite each
//     query into a union q_ref with q_ref(G) = q(G∞);
//   - Backward chaining (AllegroGraph/Virtuoso style): evaluate against a
//     virtual view of G∞ that derives entailed triples at match time.
//
// All three implement Strategy over the same store, so their performance
// differences (Figure 3 and experiments E3–E8) are algorithmic, not
// storage artifacts. The package also hosts the threshold arithmetic of
// Figure 3 and the strategy advisor sketched as an open issue in §II-D.
package core

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/schema"
	"repro/internal/store"
)

// KB is a knowledge base: a dictionary-encoded RDF graph (instance + schema
// triples) plus the entailment rule set. It is the loading container from
// which strategies are built; strategies own independent copies of the data
// so their update paths can be compared side by side.
type KB struct {
	dict  *dict.Dict
	voc   schema.Vocab
	base  *store.Store
	rules []reason.Rule
}

// NewKB returns an empty knowledge base using the RDFS rule set of the DB
// fragment.
func NewKB() *KB {
	d := dict.New()
	voc := schema.NewVocab(d)
	return &KB{
		dict:  d,
		voc:   voc,
		base:  store.New(),
		rules: reason.RDFSRules(voc),
	}
}

// RestoreKB rebuilds a knowledge base around a dictionary and base store
// recovered from a persistence snapshot, taking ownership of both. The RDFS
// vocabulary is re-encoded against the restored dictionary (terms already
// present keep their IDs; the dense assignment makes this a no-op for any
// dictionary that saw the vocabulary before it was persisted). base may be
// nil when the KB only carries dictionary, vocabulary and rules (the
// restored-saturation fast path, whose data lives in the strategy).
func RestoreKB(d *dict.Dict, base *store.Store) *KB {
	if base == nil {
		base = store.New()
	}
	voc := schema.NewVocab(d)
	return &KB{
		dict:  d,
		voc:   voc,
		base:  base,
		rules: reason.RDFSRules(voc),
	}
}

// Dict exposes the term dictionary (shared, append-only).
func (kb *KB) Dict() *dict.Dict { return kb.dict }

// Vocab exposes the encoded RDF/RDFS vocabulary.
func (kb *KB) Vocab() schema.Vocab { return kb.voc }

// Rules returns the entailment rules in force.
func (kb *KB) Rules() []reason.Rule { return kb.rules }

// SetRules replaces the rule set (e.g. to add user-defined rules). It must
// be called before strategies are constructed.
func (kb *KB) SetRules(rules []reason.Rule) error {
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return err
		}
	}
	kb.rules = rules
	return nil
}

// Len returns the number of asserted triples.
func (kb *KB) Len() int { return kb.base.Len() }

// Base returns the store of asserted triples. Callers must treat it as
// read-only; use Add/Remove.
func (kb *KB) Base() *store.Store { return kb.base }

// Encode converts a term-level triple to its dictionary-encoded form,
// assigning IDs as needed.
func (kb *KB) Encode(t rdf.Triple) store.Triple {
	return store.Triple{
		S: kb.dict.Encode(t.S),
		P: kb.dict.Encode(t.P),
		O: kb.dict.Encode(t.O),
	}
}

// Decode converts an encoded triple back to terms.
func (kb *KB) Decode(t store.Triple) rdf.Triple {
	return rdf.T(kb.dict.MustTerm(t.S), kb.dict.MustTerm(t.P), kb.dict.MustTerm(t.O))
}

// Add asserts a triple; it reports whether it was new and errors on
// ill-formed input.
func (kb *KB) Add(t rdf.Triple) (bool, error) {
	if err := t.WellFormed(); err != nil {
		return false, err
	}
	return kb.base.Add(kb.Encode(t)), nil
}

// Remove retracts a triple, reporting whether it was present.
func (kb *KB) Remove(t rdf.Triple) bool {
	enc := store.Triple{}
	var ok bool
	if enc.S, ok = kb.dict.Lookup(t.S); !ok {
		return false
	}
	if enc.P, ok = kb.dict.Lookup(t.P); !ok {
		return false
	}
	if enc.O, ok = kb.dict.Lookup(t.O); !ok {
		return false
	}
	return kb.base.Remove(enc)
}

// LoadGraph asserts every triple of g, returning the number added.
func (kb *KB) LoadGraph(g *rdf.Graph) (int, error) {
	n := 0
	var firstErr error
	g.ForEach(func(t rdf.Triple) bool {
		added, err := kb.Add(t)
		if err != nil {
			firstErr = fmt.Errorf("loading %s: %w", t, err)
			return false
		}
		if added {
			n++
		}
		return true
	})
	return n, firstErr
}

// Graph decodes the asserted triples back into an rdf.Graph (mainly for
// serialisation and tests).
func (kb *KB) Graph() *rdf.Graph {
	g := rdf.NewGraph()
	kb.base.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		g.Add(kb.Decode(t))
		return true
	})
	return g
}

// Schema extracts the closed schema of the current base graph.
func (kb *KB) Schema() *schema.Schema {
	return schema.Extract(kb.base, kb.voc)
}
