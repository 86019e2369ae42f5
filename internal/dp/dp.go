// Package dp provides the differential privacy primitives the paper
// builds on: the Laplace mechanism calibrated to global sensitivity
// (Dwork et al., Theorem 4.5 in the paper), (ε, δ) privacy budgets, and
// sequential composition (Dwork–Lei, Theorem 4.9). The graph-specific
// mechanisms live in packages degseq (private degree sequences) and
// smoothsens (private triangle counts).
package dp

import (
	"fmt"
	"math"

	"dpkron/internal/randx"
)

// Budget is an (ε, δ) differential privacy guarantee. δ = 0 is pure
// ε-differential privacy.
type Budget struct {
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
}

// Validate checks ε > 0 (finite) and δ ∈ [0, 1).
func (b Budget) Validate() error {
	if math.IsNaN(b.Eps) || math.IsInf(b.Eps, 0) || b.Eps <= 0 {
		return fmt.Errorf("dp: epsilon must be positive and finite, got %v", b.Eps)
	}
	if math.IsNaN(b.Delta) || b.Delta < 0 || b.Delta >= 1 {
		return fmt.Errorf("dp: delta must be in [0, 1), got %v", b.Delta)
	}
	return nil
}

// String formats the budget as (ε, δ).
func (b Budget) String() string { return fmt.Sprintf("(%g, %g)-DP", b.Eps, b.Delta) }

// Compose returns the sequential composition of budgets: ε and δ add
// (Theorem 4.9 of the paper).
func Compose(parts ...Budget) Budget {
	var total Budget
	for _, p := range parts {
		total.Eps += p.Eps
		total.Delta += p.Delta
	}
	return total
}

// Laplace perturbs value with noise calibrated to the given L1 global
// sensitivity: value + Lap(sensitivity/ε). With sensitivity the true
// global sensitivity of the query, the release is (ε, 0)-DP
// (Theorem 4.5). It panics if sensitivity < 0 or ε <= 0.
func Laplace(value, sensitivity, eps float64, rng *randx.Rand) float64 {
	checkParams(sensitivity, eps)
	return value + rng.Laplace(sensitivity/eps)
}

// LaplaceVec perturbs a vector query in place with i.i.d. Laplace noise
// of scale sensitivity/ε, where sensitivity is the L1 global
// sensitivity of the whole vector, drawing one variate per coordinate
// in index order. It overwrites values and returns it; a caller that
// still needs the exact answers passes a copy.
func LaplaceVec(values []float64, sensitivity, eps float64, rng *randx.Rand) []float64 {
	checkParams(sensitivity, eps)
	scale := sensitivity / eps
	for i := range values {
		values[i] += rng.Laplace(scale)
	}
	return values
}

func checkParams(sensitivity, eps float64) {
	if sensitivity < 0 || math.IsNaN(sensitivity) {
		panic(fmt.Sprintf("dp: negative sensitivity %v", sensitivity))
	}
	if eps <= 0 || math.IsNaN(eps) {
		panic(fmt.Sprintf("dp: non-positive epsilon %v", eps))
	}
}
