package degseq

import (
	"math"
	"testing"

	"dpkron/internal/randx"
)

// isotonicStacks is the pool-adjacent-violators projection with
// separate sum and count stacks and a fresh output: the oracle that
// isotonicInPlace must match bit for bit.
func isotonicStacks(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	sums := make([]float64, 0, n)
	counts := make([]int, 0, n)
	for _, v := range x {
		s, c := v, 1
		for len(sums) > 0 && sums[len(sums)-1]*float64(c) >= s*float64(counts[len(counts)-1]) {
			s += sums[len(sums)-1]
			c += counts[len(counts)-1]
			sums = sums[:len(sums)-1]
			counts = counts[:len(counts)-1]
		}
		sums = append(sums, s)
		counts = append(counts, c)
	}
	i := 0
	for b := range sums {
		mean := sums[b] / float64(counts[b])
		for j := 0; j < counts[b]; j++ {
			out[i] = mean
			i++
		}
	}
	return out
}

// TestIsotonicInPlaceMatchesStacks compares the in-place PAVA with the
// stack oracle bit for bit on random, tied, constant and strictly
// decreasing vectors, and on noised degree sequences as PrivateAcc
// releases them. Isotonic must agree too and leave its input alone.
func TestIsotonicInPlaceMatchesStacks(t *testing.T) {
	rng := randx.New(11)
	var cases [][]float64
	for trial := 0; trial < 400; trial++ {
		n := rng.IntN(200)
		random, tied, constant, decreasing := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		c := rng.Normal()
		for i := 0; i < n; i++ {
			random[i] = rng.Normal() * 10
			tied[i] = float64(rng.IntN(4)) / 3
			constant[i] = c
			decreasing[i] = float64(n-i) + 0.1*rng.Float64()
		}
		cases = append(cases, random, tied, constant, decreasing)
	}
	for _, seed := range []uint64{1, 2, 3} {
		sorted := Sorted(randomGraph(300, 0.05, seed))
		for i := range sorted {
			sorted[i] += rng.Laplace(GlobalSensitivity / 0.2)
		}
		cases = append(cases, sorted)
	}
	for _, in := range cases {
		want := isotonicStacks(in)
		kept := append([]float64(nil), in...)
		viaCopy := Isotonic(in)
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(kept[i]) {
				t.Fatalf("Isotonic modified its input at %d", i)
			}
		}
		got := append([]float64(nil), in...)
		isotonicInPlace(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(viaCopy[i]) != math.Float64bits(want[i]) {
				t.Fatalf("input %v: at %d in-place %v, Isotonic %v, oracle %v", in, i, got[i], viaCopy[i], want[i])
			}
		}
	}
}
