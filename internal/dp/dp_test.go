package dp

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dpkron/internal/randx"
)

func TestBudgetValidate(t *testing.T) {
	valid := []Budget{{0.1, 0}, {1, 0.01}, {10, 0.5}}
	for _, b := range valid {
		if err := b.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", b, err)
		}
	}
	invalid := []Budget{{0, 0}, {-1, 0}, {1, -0.1}, {1, 1}, {math.NaN(), 0}, {1, math.NaN()}, {math.Inf(1), 0}}
	for _, b := range invalid {
		if err := b.Validate(); err == nil {
			t.Errorf("%v: expected error", b)
		}
	}
}

func TestCompose(t *testing.T) {
	got := Compose(Budget{0.1, 0.01}, Budget{0.1, 0.01}, Budget{0.3, 0})
	if math.Abs(got.Eps-0.5) > 1e-15 || math.Abs(got.Delta-0.02) > 1e-15 {
		t.Fatalf("Compose = %v", got)
	}
	if z := Compose(); z.Eps != 0 || z.Delta != 0 {
		t.Fatal("empty composition should be zero")
	}
}

func TestLaplaceUnbiased(t *testing.T) {
	rng := randx.New(1)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Laplace(10, 2, 0.5, rng)
	}
	mean := sum / n
	// scale = 4, sd = 4√2 ≈ 5.66, se of mean ≈ 0.018
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Laplace mechanism mean = %v, want ~10", mean)
	}
}

func TestLaplaceScaleMatchesSensitivityOverEps(t *testing.T) {
	rng := randx.New(2)
	const n = 200000
	var sumAbs float64
	for i := 0; i < n; i++ {
		sumAbs += math.Abs(Laplace(0, 3, 1.5, rng))
	}
	// E|Lap(b)| = b = 3/1.5 = 2.
	if got := sumAbs / n; math.Abs(got-2) > 0.03 {
		t.Fatalf("mean |noise| = %v, want 2", got)
	}
}

func TestLaplaceVec(t *testing.T) {
	rng := randx.New(3)
	exact := []float64{1, 2, 3}
	in := slices.Clone(exact)
	out := LaplaceVec(in, 1, 1000, rng) // tiny noise
	if len(out) != 3 {
		t.Fatal("length mismatch")
	}
	for i := range exact {
		if math.Abs(out[i]-exact[i]) > 0.5 {
			t.Fatalf("out[%d] = %v, want near %v", i, out[i], exact[i])
		}
	}
	// The noise lands in place: out is the input slice.
	if &out[0] != &in[0] {
		t.Fatal("LaplaceVec returned a new slice instead of noising in place")
	}
	// One draw per coordinate, in index order.
	ref := randx.New(3)
	for i, v := range exact {
		if want := v + ref.Laplace(1.0/1000); out[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestLaplacePanics(t *testing.T) {
	rng := randx.New(4)
	for _, f := range []func(){
		func() { Laplace(0, -1, 1, rng) },
		func() { Laplace(0, 1, 0, rng) },
		func() { LaplaceVec(nil, 1, -2, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuickComposeAdds(t *testing.T) {
	f := func(e1, e2, d1, d2 uint16) bool {
		a := Budget{float64(e1) / 1000, float64(d1) / 200000}
		b := Budget{float64(e2) / 1000, float64(d2) / 200000}
		got := Compose(a, b)
		return math.Abs(got.Eps-(a.Eps+b.Eps)) < 1e-12 &&
			math.Abs(got.Delta-(a.Delta+b.Delta)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The defining property of the Laplace mechanism: for outputs o and
// neighbouring values x, x' with |x - x'| <= sensitivity, the density
// ratio is bounded by exp(ε). Verified empirically via histogram ratio.
func TestLaplaceDensityRatio(t *testing.T) {
	rng := randx.New(9)
	const n = 400000
	eps := 0.5
	sens := 1.0
	// Values from two neighbouring databases.
	histA := map[int]int{}
	histB := map[int]int{}
	bucket := func(x float64) int { return int(math.Floor(x)) }
	for i := 0; i < n; i++ {
		histA[bucket(Laplace(0, sens, eps, rng))]++
		histB[bucket(Laplace(1, sens, eps, rng))]++
	}
	bound := math.Exp(eps) * 1.25 // slack for sampling error
	for b, ca := range histA {
		cb := histB[b]
		if ca < 500 || cb < 500 {
			continue // skip noisy tails
		}
		ratio := float64(ca) / float64(cb)
		if ratio > bound || 1/ratio > bound {
			t.Fatalf("bucket %d: ratio %v exceeds e^eps bound %v", b, ratio, bound)
		}
	}
}
