// Package degseq implements Hay, Li, Miklau and Jensen's (ICDM'09)
// differentially private approximation of a graph's sorted degree
// sequence, which the paper uses in steps 1–3 of Algorithm 1.
//
// The sorted degree sequence dS has L1 global sensitivity 2 under edge
// neighbourhood (toggling one edge moves two degrees by one each, and
// sorting cannot increase L1 distance), so dS + Lap(2/ε)^n is
// (ε, 0)-DP. The constrained-inference post-processing step projects
// the noisy vector back onto the cone of non-decreasing sequences in L2,
// computed by the pool-adjacent-violators algorithm (PAVA); being
// post-processing, it costs no additional privacy while substantially
// reducing error.
package degseq

import (
	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/randx"
)

// GlobalSensitivity is the L1 global sensitivity of the sorted degree
// sequence under single-edge neighbourhood.
const GlobalSensitivity = 2.0

// Sorted returns the degree sequence of g sorted ascending, as floats
// ready for noise addition. It counting-sorts the degrees, read from the
// CSR offsets, straight into the output in O(n + max degree).
func Sorted(g *graph.Graph) []float64 {
	off, _ := g.CSR()
	out := make([]float64, g.NumNodes())
	count := make([]int32, g.MaxDegree()+1)
	for v := range out {
		count[off[v+1]-off[v]]++
	}
	i := 0
	for d, c := range count {
		for end := i + int(c); i < end; i++ {
			out[i] = float64(d)
		}
	}
	return out
}

// Query is the name under which the release is charged to accountants.
const Query = "degseq/sorted-degree-sequence"

// Private returns an (ε, 0)-differentially private estimate of the
// sorted degree sequence of g: Laplace noise with scale 2/ε followed by
// isotonic (PAVA) post-processing. The result is non-decreasing but not
// necessarily integral or non-negative; downstream feature formulas
// accept real values (Fact 4.6 of the paper).
func Private(g *graph.Graph, eps float64, rng *randx.Rand) []float64 {
	out, _ := PrivateAcc(nil, g, eps, rng) // nil accountant never refuses
	return out
}

// PrivateAcc is Private drawing through the accountant's vector
// Laplace mechanism: the (ε, 0) charge is recorded on acc (nil records
// nothing) before any noise is drawn, and a refused charge — the
// accountant's budget limit would be exceeded — returns the error with
// no noise consumed from rng. For fixed seeds the released sequence is
// bit-identical to Private.
func PrivateAcc(acc *accountant.Accountant, g *graph.Graph, eps float64, rng *randx.Rand) ([]float64, error) {
	mech := accountant.LaplaceVec{Sens: GlobalSensitivity, Eps: eps}
	if err := acc.Charge(Query, mech); err != nil {
		return nil, err
	}
	return Isotonic(mech.Apply(Sorted(g), rng)), nil
}

// Isotonic returns the L2 projection of x onto non-decreasing sequences
// using the pool-adjacent-violators algorithm in O(n). The input is not
// modified.
func Isotonic(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	// Stack of blocks, each carrying (sum, count). Blocks are merged
	// while the previous block's mean exceeds the new block's mean.
	sums := make([]float64, 0, n)
	counts := make([]int, 0, n)
	for _, v := range x {
		s, c := v, 1
		for len(sums) > 0 && sums[len(sums)-1]*float64(c) >= s*float64(counts[len(counts)-1]) {
			// prev.mean >= cur.mean  <=>  prevSum*curCount >= curSum*prevCount
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
