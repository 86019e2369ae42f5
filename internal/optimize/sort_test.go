package optimize

import (
	"sort"
	"testing"

	"dpkron/internal/randx"
)

// TestSortByValueMatchesSortSlice: on simplices of up to 12 vertices
// (11 dimensions), with values drawn from a few levels so that ties are
// common, sortByValue leaves the vertex order sort.Slice leaves.
func TestSortByValueMatchesSortSlice(t *testing.T) {
	rng := randx.New(7)
	for trial := 0; trial < 20000; trial++ {
		n := 1 + int(rng.Uint64()%12)
		levels := 1 + rng.Uint64()%4
		fvals := make([]float64, n)
		for i := range fvals {
			fvals[i] = float64(rng.Uint64() % levels)
		}
		got := make([]int, n)
		want := make([]int, n)
		for i := range got {
			got[i], want[i] = i, i
		}
		sortByValue(got, fvals)
		sort.Slice(want, func(a, b int) bool { return fvals[want[a]] < fvals[want[b]] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fvals %v: sortByValue order %v, sort.Slice order %v", fvals, got, want)
			}
		}
	}
}
