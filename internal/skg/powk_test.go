package skg

import (
	"math"
	"testing"

	"dpkron/internal/randx"
)

// checkPowK fails unless powK(x, k) has the bits of math.Pow(x, k).
func checkPowK(t *testing.T, x float64, k int) {
	t.Helper()
	got, want := powK(x, k), math.Pow(x, float64(k))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("powK(%v, %d) = %v (%#x), math.Pow = %v (%#x)",
			x, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowKMatchesMathPowEdges covers both ends of the repeated-squaring
// range, the floats just outside it (which take the math.Pow fallback)
// and k = 31, the first exponent past it.
func TestPowKMatchesMathPowEdges(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		0x1p-30, math.Nextafter(0x1p-30, 0), math.Nextafter(0x1p-30, 1),
		0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 4,
		0x1p30, math.Nextafter(0x1p30, math.Inf(1)), math.Nextafter(0x1p30, 0),
		-1, -0.5, -3, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	for k := 0; k <= 32; k++ {
		for _, x := range xs {
			checkPowK(t, x, k)
		}
	}
}

// TestPowKMatchesMathPowRandom draws a million seeded points: half
// uniform on [0, 4] (where the moment fit's aggregates lie) and half
// log-uniform on [2^-64, 2^64], across k = 1..31. The wide half reaches
// the bases whose powers are subnormal, where repeated squaring would
// round twice, so a looser range check fails here.
func TestPowKMatchesMathPowRandom(t *testing.T) {
	rng := randx.New(25)
	for i := 0; i < 1<<20; i++ {
		k := 1 + int(rng.Uint64()%31)
		var x float64
		if i&1 == 0 {
			x = 4 * rng.Float64()
		} else {
			x = math.Exp2(128*rng.Float64() - 64)
		}
		checkPowK(t, x, k)
	}
}
