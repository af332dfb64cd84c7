package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dict"
)

// TestResultOpsProperties checks algebraic invariants of the row operators
// with testing/quick: RowSet agrees with a reference set on every width
// (array keys and string keys alike, before and after Reset), and Sort is a
// sorted permutation.
func TestResultOpsProperties(t *testing.T) {
	gen := func(seed int64, w int) [][]dict.ID {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]dict.ID, rng.Intn(30))
		for i := range rows {
			rows[i] = make([]dict.ID, w)
			for j := range rows[i] {
				rows[i][j] = dict.ID(rng.Intn(4) + 1)
			}
		}
		return rows
	}

	rowSetMatchesReference := func(seed int64, width uint8) bool {
		w := int(width % 6)
		s := NewRowSet(w, 0)
		for round := 0; round < 2; round++ {
			ref := map[string]bool{}
			for _, row := range gen(seed+int64(round), w) {
				key := ""
				for _, id := range row {
					key += string(rune(id)) + ","
				}
				if s.Add(row) == ref[key] {
					return false
				}
				ref[key] = true
			}
			s.Reset()
		}
		return true
	}
	if err := quick.Check(rowSetMatchesReference, nil); err != nil {
		t.Errorf("RowSet disagrees with a reference set: %v", err)
	}

	sortIsPermutation := func(seed int64) bool {
		r := &Result{Vars: []string{"a", "b"}, Rows: gen(seed, 2)}
		count := map[[2]dict.ID]int{}
		for _, row := range r.Rows {
			count[[2]dict.ID{row[0], row[1]}]++
		}
		s := r.Sort()
		for _, row := range s.Rows {
			count[[2]dict.ID{row[0], row[1]}]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		// And sorted.
		for i := 1; i < len(s.Rows); i++ {
			a, b := s.Rows[i-1], s.Rows[i]
			if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(sortIsPermutation, nil); err != nil {
		t.Errorf("Sort not a sorted permutation: %v", err)
	}
}
