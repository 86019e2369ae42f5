package optimize

import (
	"math"
	"testing"

	"dpkron/internal/randx"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i+1 < len(x); i++ {
		s += 100*math.Pow(x[i+1]-x[i]*x[i], 2) + math.Pow(1-x[i], 2)
	}
	return s
}

func TestNelderMeadSphere(t *testing.T) {
	res := must(NelderMeadCtx(nil, sphere, []float64{3, -2, 1}, NelderMeadOptions{MaxIter: 2000}))
	if res.F > 1e-8 {
		t.Fatalf("sphere minimum not found: F=%v X=%v", res.F, res.X)
	}
}

func TestNelderMeadRosenbrock2D(t *testing.T) {
	res := must(NelderMeadCtx(nil, rosenbrock, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000, Step: 0.5}))
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("rosenbrock minimum not found: F=%v X=%v", res.F, res.X)
	}
}

func TestNelderMeadShiftedQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return 2*(x[0]-0.3)*(x[0]-0.3) + 5*(x[1]+0.7)*(x[1]+0.7) + 1.5
	}
	res := must(NelderMeadCtx(nil, f, []float64{0, 0}, NelderMeadOptions{}))
	if math.Abs(res.X[0]-0.3) > 1e-4 || math.Abs(res.X[1]+0.7) > 1e-4 {
		t.Fatalf("X = %v, want (0.3, -0.7)", res.X)
	}
	if math.Abs(res.F-1.5) > 1e-6 {
		t.Fatalf("F = %v, want 1.5", res.F)
	}
}

func TestNelderMeadConvergedFlag(t *testing.T) {
	res := must(NelderMeadCtx(nil, sphere, []float64{0.5, 0.5}, NelderMeadOptions{MaxIter: 5000}))
	if !res.Converged {
		t.Fatal("expected convergence on sphere")
	}
	res = must(NelderMeadCtx(nil, rosenbrock, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 3}))
	if res.Converged {
		t.Fatal("3 iterations should not converge on rosenbrock")
	}
}

func TestGridSearch(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Abs(x[0]-0.5) + math.Abs(x[1]-0.25)
	}
	res := must(GridSearchCtx(nil, f, []float64{0, 0}, []float64{1, 1}, 5))
	// Grid points are multiples of 0.25: exact optimum is on the grid.
	if math.Abs(res.X[0]-0.5) > 1e-12 || math.Abs(res.X[1]-0.25) > 1e-12 {
		t.Fatalf("grid optimum = %v", res.X)
	}
	if res.Evals != 25 {
		t.Fatalf("grid evals = %d, want 25", res.Evals)
	}
}

func TestClamp(t *testing.T) {
	x := []float64{-1, 0.5, 2}
	Clamp(x, []float64{0, 0, 0}, []float64{1, 1, 1})
	if x[0] != 0 || x[1] != 0.5 || x[2] != 1 {
		t.Fatalf("Clamp = %v", x)
	}
}

func TestMultiStartFindsBoxConstrainedMinimum(t *testing.T) {
	// Unconstrained minimum at (2, 2) lies outside the box [0,1]²;
	// the constrained minimum is at the corner (1, 1).
	f := func(x []float64) float64 {
		return (x[0]-2)*(x[0]-2) + (x[1]-2)*(x[1]-2)
	}
	res := must(MultiStartCtx(nil, f, []float64{0, 0}, []float64{1, 1}, 4, 5, randx.New(1), NelderMeadOptions{MaxIter: 500}))
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("constrained minimum = %v, want (1,1)", res.X)
	}
}

func TestMultiStartEscapesLocalMinimum(t *testing.T) {
	// Double well in 1D: local minimum near x=0.1 (value 0.5), global
	// near x=0.9 (value 0).
	f := func(x []float64) float64 {
		a := (x[0] - 0.1) * (x[0] - 0.1) * 40
		b := (x[0]-0.9)*(x[0]-0.9)*40 + 0
		if a+0.5 < b {
			return a + 0.5
		}
		return b
	}
	res := must(MultiStartCtx(nil, f, []float64{0}, []float64{1}, 6, 9, randx.New(3), NelderMeadOptions{}))
	if math.Abs(res.X[0]-0.9) > 0.05 {
		t.Fatalf("global minimum missed: %v", res.X)
	}
}

func TestGridSearchSinglePointPerAxisClamped(t *testing.T) {
	res := must(GridSearchCtx(nil, sphere, []float64{-1}, []float64{1}, 1)) // bumped to 2
	if res.Evals != 2 {
		t.Fatalf("evals = %d, want 2", res.Evals)
	}
}

// must unwraps a (value, error) pair from a Run that is never
// cancelled, where an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
