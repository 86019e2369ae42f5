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
	out := mech.Apply(Sorted(g), rng)
	isotonicInPlace(out)
	return out, nil
}

// Isotonic returns the L2 projection of x onto non-decreasing sequences
// using the pool-adjacent-violators algorithm in O(n). The input is not
// modified.
func Isotonic(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	isotonicInPlace(out)
	return out
}

// isotonicInPlace overwrites x with its isotonic projection. The blocks
// form a stack whose b-th sum is kept in x[b]: it never overtakes the
// element being read, since every block holds at least one. Blocks are
// merged while the previous block's mean is at least the new one's,
// then expanded from the back, so the block sums still to be read stay
// below the positions being written.
func isotonicInPlace(x []float64) {
	counts := make([]int32, 0, len(x))
	for _, v := range x {
		s, c := v, int32(1)
		for nb := len(counts); nb > 0 && x[nb-1]*float64(c) >= s*float64(counts[nb-1]); nb-- {
			// prev.mean >= cur.mean  <=>  prevSum*curCount >= curSum*prevCount
			s += x[nb-1]
			c += counts[nb-1]
			counts = counts[:nb-1]
		}
		x[len(counts)] = s
		counts = append(counts, c)
	}
	i := len(x)
	for b := len(counts) - 1; b >= 0; b-- {
		mean := x[b] / float64(counts[b])
		for j := int32(0); j < counts[b]; j++ {
			i--
			x[i] = mean
		}
	}
}
