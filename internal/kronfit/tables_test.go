package kronfit

import (
	"math"
	"testing"

	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// ulpDiff returns the number of representable float64 values between a
// and b (0 when bit-identical).
func ulpDiff(a, b float64) int {
	if a == b {
		return 0
	}
	n := 0
	for x := math.Min(a, b); x < math.Max(a, b) && n <= 4; n++ {
		x = math.Nextafter(x, math.Inf(1))
	}
	return n
}

// tableThetas spans the clamp range [minParam, maxParam] of FitCtx,
// including the extremes where log P and 1/(1−P) are most delicate.
func tableThetas() []skg.Initiator {
	vals := []float64{minParam, 0.01, 0.2, 0.5, 0.9, maxParam}
	var out []skg.Initiator
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				out = append(out, skg.Initiator{A: a, B: b, C: c})
			}
		}
	}
	return out
}

// TestEdgeTableMatchesDirect asserts the tabulated edgeTerm agrees with
// the direct math.Exp/math.Log1p formula to within 1 ulp for every
// reachable (na, nc) cell, across the clamp range and several K.
func TestEdgeTableMatchesDirect(t *testing.T) {
	g := testGraph(4, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 1)
	for _, k := range []int{4, 10, 16} {
		for _, th := range tableThetas() {
			s := newState(g, 4, th, randx.New(1))
			s.k = k // retabulate at power k
			s.edgeTab = make([]float64, (k+1)*(k+1))
			s.gradTab = make([]float64, 3*(k+1)*(k+1))
			s.setTheta(th)
			for na := 0; na <= k; na++ {
				for nc := 0; na+nc <= k; nc++ {
					// Labels realizing (na, nc): nc shared low bits, the
					// next k−na−nc bits set on one side only.
					nb := k - na - nc
					u := 1<<(nc+nb) - 1
					v := 1<<nc - 1
					got := s.edgeTerm(u, v)
					want := s.edgeTermDirect(u, v)
					if d := ulpDiff(got, want); d > 1 {
						t.Fatalf("k=%d θ=%v na=%d nc=%d: edgeTerm %v vs direct %v (%d ulp)",
							k, th, na, nc, got, want, d)
					}
				}
			}
		}
	}
}

// TestGradTableMatchesDirect asserts the three tabulated gradient
// coefficients agree with the direct formulas to within 1 ulp.
func TestGradTableMatchesDirect(t *testing.T) {
	g := testGraph(4, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 1)
	for _, k := range []int{4, 12} {
		for _, th := range tableThetas() {
			s := newState(g, 4, th, randx.New(1))
			s.k = k
			s.edgeTab = make([]float64, (k+1)*(k+1))
			s.gradTab = make([]float64, 3*(k+1)*(k+1))
			s.setTheta(th)
			for na := 0; na <= k; na++ {
				for nc := 0; na+nc <= k; nc++ {
					nb := k - na - nc
					logP := float64(na)*s.la + float64(nb)*s.lb + float64(nc)*s.lc
					p := math.Exp(logP)
					if p > 1-1e-12 {
						p = 1 - 1e-12
					}
					inv := 1 / (1 - p)
					want := [3]float64{
						2 * float64(na) / th.A * inv,
						2 * float64(nb) / th.B * inv,
						2 * float64(nc) / th.C * inv,
					}
					idx := na*(k+1) + nc
					for j := 0; j < 3; j++ {
						if d := ulpDiff(s.gradTab[3*idx+j], want[j]); d > 1 {
							t.Fatalf("k=%d θ=%v na=%d nc=%d coeff %d: %v vs %v (%d ulp)",
								k, th, na, nc, j, s.gradTab[3*idx+j], want[j], d)
						}
					}
				}
			}
		}
	}
}

// TestPairIndexMatchesQuadrants checks the table index agrees with the
// (na, nb, nc) decomposition for random label pairs.
func TestPairIndexMatchesQuadrants(t *testing.T) {
	g := testGraph(4, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, 1)
	for _, k := range []int{1, 5, 13} {
		s := newState(g, 4, skg.Initiator{A: 0.9, B: 0.5, C: 0.2}, randx.New(1))
		s.k = k
		rng := randx.New(uint64(k))
		for trial := 0; trial < 500; trial++ {
			u := rng.IntN(1 << k)
			v := rng.IntN(1 << k)
			na, _, nc := s.quadrants(u, v)
			if got, want := s.pairIndex(u, v), na*(k+1)+nc; got != want {
				t.Fatalf("k=%d u=%d v=%d: pairIndex %d, want %d", k, u, v, got, want)
			}
		}
	}
}
