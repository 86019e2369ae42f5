package parallel

import (
	"sort"
	"testing"

	"dpkron/internal/randx"
)

// TestSortInt64MatchesReference drives SortInt64 against sort.Slice on
// inputs chosen to hit every code path: the insertion-sort tail, the
// serial radix path, the sharded radix path (explicit workers > 1 so it
// runs even on a single-CPU machine), duplicate-heavy streams, and
// degenerate digit patterns (all-equal keys, already-sorted and
// reverse-sorted input, keys confined to one byte).
func TestSortInt64MatchesReference(t *testing.T) {
	rng := randx.New(1)
	gen := func(n int, mode string) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			switch mode {
			case "dup":
				keys[i] = int64(rng.IntN(7)) // heavy duplication
			case "byte":
				keys[i] = int64(rng.IntN(200)) // single active digit
			case "wide":
				keys[i] = int64(rng.Uint64() >> 1) // full non-negative range
			default:
				keys[i] = int64(rng.IntN(1<<20))<<32 | int64(rng.IntN(1<<20))
			}
		}
		switch mode {
		case "sorted":
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		case "reverse":
			sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
		case "equal":
			for i := range keys {
				keys[i] = 42
			}
		}
		return keys
	}
	sizes := []int{0, 1, 2, insertionMax, insertionMax + 1, 1000, radixSerialMin - 1, radixSerialMin + 3, 60000}
	modes := []string{"pairs", "dup", "byte", "wide", "sorted", "reverse", "equal"}
	var scratch []int64
	for _, n := range sizes {
		for _, mode := range modes {
			for _, workers := range []int{1, 2, 8} {
				keys := gen(n, mode)
				want := append([]int64(nil), keys...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				scratch, _ = SortInt64(nil, workers, keys, scratch)
				for i := range keys {
					if keys[i] != want[i] {
						t.Fatalf("n=%d mode=%s workers=%d: keys[%d] = %d, want %d",
							n, mode, workers, i, keys[i], want[i])
					}
				}
			}
		}
	}
}

func TestSortInt64ScratchReuse(t *testing.T) {
	var scratch []int64
	for n := 1; n <= 4096; n *= 4 {
		rng := randx.New(uint64(n))
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.IntN(1 << 30))
		}
		scratch, _ = SortInt64(nil, 4, keys, scratch)
		if len(scratch) < n {
			t.Fatalf("scratch not grown to %d", n)
		}
		for i := 1; i < n; i++ {
			if keys[i] < keys[i-1] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

func TestMergeSortedInt64(t *testing.T) {
	rng := randx.New(7)
	for trial := 0; trial < 50; trial++ {
		na, nb := rng.IntN(40), rng.IntN(40)
		a := make([]int64, na)
		b := make([]int64, nb)
		for i := range a {
			a[i] = int64(rng.IntN(1000))
		}
		for i := range b {
			b[i] = int64(rng.IntN(1000))
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		want := append(append([]int64(nil), a...), b...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := MergeSortedInt64(a, b)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}
