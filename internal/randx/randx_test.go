package randx

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
}

func TestLaplaceMoments(t *testing.T) {
	r := New(123)
	const n = 200000
	scale := 2.5
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := r.Laplace(scale)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// E|X| = scale for Laplace.
	if math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("Laplace E|X| = %v, want %v", meanAbs, scale)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	r := New(5)
	for i := 0; i < 10; i++ {
		if x := r.Laplace(0); x != 0 {
			t.Fatalf("Laplace(0) = %v, want 0", x)
		}
	}
}

func TestLaplaceTailSymmetry(t *testing.T) {
	r := New(99)
	pos, neg := 0, 0
	for i := 0; i < 100000; i++ {
		if r.Laplace(1) > 0 {
			pos++
		} else {
			neg++
		}
	}
	ratio := float64(pos) / float64(neg)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("sign ratio = %v, want ~1", ratio)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(321)
	const n = 200000
	rate := 3.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exponential mean = %v, want %v", mean, 1/rate)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPanics(t *testing.T) {
	r := New(0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Exponential(0)", func() { r.Exponential(0) })
	mustPanic("Laplace(-1)", func() { r.Laplace(-1) })
}

// TestStreamMatchesStdlibPCG checks that Rand's direct PCG calls and the
// rand.Rand wrapping the same PCG advance one stream: an interleaving of
// every kind of draw must reproduce math/rand/v2 over the PCG that New
// seeds, draw for draw, including samplers that consume a variable
// number of draws.
func TestStreamMatchesStdlibPCG(t *testing.T) {
	stdlib := func(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, splitmix64(seed))) }
	for _, seed := range []uint64{0, 1, 1 << 63, math.MaxUint64} {
		r, ref := New(seed), stdlib(seed)
		pick := rand.New(rand.NewPCG(seed, 7))
		for i := range 5000 {
			op := pick.IntN(8)
			var got, want any
			switch op {
			case 0:
				got, want = r.Uint64(), ref.Uint64()
			case 1:
				got, want = r.Float64(), ref.Float64()
			case 2:
				got, want = r.IntN(1000), ref.IntN(1000)
			case 3:
				got, want = r.Normal(), ref.NormFloat64()
			case 4:
				got, want = r.Exponential(2), ref.ExpFloat64()/2
			case 5:
				got, want = fmt.Sprint(r.Perm(5)), fmt.Sprint(ref.Perm(5))
			case 6:
				u, x := ref.Float64()-0.5, 0.0
				if u >= 0 {
					x = -3 * math.Log(1-2*u)
				} else {
					x = 3 * math.Log(1+2*u)
				}
				got, want = r.Laplace(3), x
			case 7:
				child, refChild := r.Split(), stdlib(splitmix64(ref.Uint64()))
				got, want = child.Uint64(), refChild.Uint64()
			}
			if got != want {
				t.Fatalf("seed %d draw %d (op %d): got %v, stdlib %v", seed, i, op, got, want)
			}
		}
	}
}
