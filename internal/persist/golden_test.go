package persist

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden snapshot files")

// goldenState builds a small, fully deterministic serving state exercising
// every section and representation: typed/tagged literals and blanks in the
// dictionary, a set base, and a saturated store with a leaf past the
// promotion bound.
func goldenState() State {
	d := dict.New()
	base := store.NewTripleSet()
	sat := store.New()
	enc := func(t rdf.Term) dict.ID { return d.Encode(t) }
	p := enc(rdf.NewIRI("http://example.org/p"))
	dtype := enc(rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"))
	lang := enc(rdf.NewLangLiteral("bonjour", "fr"))
	blank := enc(rdf.NewBlank("b0"))
	s0 := enc(rdf.NewIRI("http://example.org/s"))
	base.Add(store.Triple{S: s0, P: p, O: dtype})
	base.Add(store.Triple{S: blank, P: p, O: lang})
	sat.Add(store.Triple{S: s0, P: p, O: dtype})
	sat.Add(store.Triple{S: blank, P: p, O: lang})
	// One long (post-promotion-size) leaf.
	for i := 0; i < 40; i++ {
		o := enc(rdf.NewIRI("http://example.org/o" + string(rune('A'+i))))
		sat.Add(store.Triple{S: s0, P: p, O: o})
	}
	return State{Dict: d, DictLen: d.Len(), BaseSet: base, Saturated: sat}
}

// TestGoldenSnapshot pins the exact bytes of the snapshot format: encoding
// the fixed state must reproduce testdata/golden_v3.snap, and decoding the
// pinned file must yield the same content. Any intentional codec or layout
// change breaks this test and must bump FormatVersion (and add a new golden
// file) so old files are refused rather than misread.
func TestGoldenSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshotFile(OS, dir, 2, 3, goldenState()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(snapshotPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_v3.snap")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding changed: %d bytes vs %d golden bytes — if intentional, bump FormatVersion and regenerate", len(got), len(want))
	}

	// The pinned file must decode to the pinned content.
	ls, err := decodeSnapshot(want)
	if err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if ls.Generation != 2 || ls.Term != 3 || ls.BaseSet == nil || ls.BaseSet.Len() != 2 ||
		ls.Saturated == nil || ls.Saturated.Len() != 42 || ls.Dict.Len() != 45 {
		t.Fatalf("golden decode: gen=%d term=%d base=%v sat=%v dict=%d",
			ls.Generation, ls.Term, ls.BaseSet, ls.Saturated, ls.Dict.Len())
	}
	if _, ok := ls.Dict.Lookup(rdf.NewLangLiteral("bonjour", "fr")); !ok {
		t.Fatal("golden dictionary lost the language-tagged literal")
	}
}
