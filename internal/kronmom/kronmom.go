// Package kronmom implements KronMom, the Gleich–Owen moment-based
// estimator of stochastic Kronecker graph parameters (Section 3.4 of the
// paper): choose the initiator (a, b, c), 0 <= c <= a <= 1, 0 <= b <= 1,
// whose closed-form expected feature counts best match the observed
// (or differentially private) feature counts under a configurable
// distance/normalization objective (Equation 2).
//
// This is both the non-private baseline ("KronMom" in Table 1) and the
// final step of the paper's private Algorithm 1, which feeds it noisy
// features.
package kronmom

import (
	"fmt"
	"math"

	"dpkron/internal/graph"
	"dpkron/internal/optimize"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/stats"
)

// Dist selects the distance function of Equation 2.
type Dist int

const (
	// DistSq is (x − y)².
	DistSq Dist = iota
	// DistAbs is |x − y|.
	DistAbs
)

// String names the distance function as in Gleich–Owen.
func (d Dist) String() string {
	switch d {
	case DistSq:
		return "DistSq"
	case DistAbs:
		return "DistAbs"
	}
	return fmt.Sprintf("Dist(%d)", int(d))
}

// Norm selects the normalization of Equation 2; F is the observed count
// and E the model's expected count.
type Norm int

const (
	// NormF2 divides by F² (with DistSq, the Gleich–Owen recommended,
	// most robust combination).
	NormF2 Norm = iota
	// NormF divides by F.
	NormF
	// NormE divides by the expected count.
	NormE
	// NormE2 divides by the squared expected count.
	NormE2
)

// String names the normalization as in Gleich–Owen.
func (n Norm) String() string {
	switch n {
	case NormF2:
		return "NormF2"
	case NormF:
		return "NormF"
	case NormE:
		return "NormE"
	case NormE2:
		return "NormE2"
	}
	return fmt.Sprintf("Norm(%d)", int(n))
}

// FeatureSet selects which of the four features participate in the
// objective. The paper sums "over three of four of the features" in one
// variant; the default uses all four.
type FeatureSet struct {
	E, H, T, Delta bool
}

// AllFeatures matches edges, hairpins, tripins and triangles.
func AllFeatures() FeatureSet { return FeatureSet{E: true, H: true, T: true, Delta: true} }

// Count returns the number of selected features.
func (fs FeatureSet) Count() int {
	n := 0
	for _, b := range []bool{fs.E, fs.H, fs.T, fs.Delta} {
		if b {
			n++
		}
	}
	return n
}

// Objective is the Equation 2 configuration.
type Objective struct {
	Dist     Dist
	Norm     Norm
	Features FeatureSet
}

// DefaultObjective is DistSq/NormF² over all four features, the
// combination Gleich and Owen found robust and the paper adopts.
func DefaultObjective() Objective {
	return Objective{Dist: DistSq, Norm: NormF2, Features: AllFeatures()}
}

// Eval computes the Equation 2 objective for a candidate initiator
// against observed features at Kronecker power k. Non-finite or
// degenerate normalizations are floored to keep noisy (possibly zero or
// negative) private features well defined.
func (o Objective) Eval(obs stats.Features, k int, init skg.Initiator) float64 {
	m := skg.Model{Init: init, K: k}
	exp := m.ExpectedFeatures()
	total := 0.0
	add := func(f, e float64) {
		var dist float64
		switch o.Dist {
		case DistAbs:
			dist = math.Abs(f - e)
		default:
			dist = (f - e) * (f - e)
		}
		var norm float64
		switch o.Norm {
		case NormF:
			norm = math.Abs(f)
		case NormE:
			norm = math.Abs(e)
		case NormE2:
			norm = e * e
		default:
			norm = f * f
		}
		if norm < 1e-12 {
			norm = 1e-12
		}
		total += dist / norm
	}
	if o.Features.E {
		add(obs.E, exp.E)
	}
	if o.Features.H {
		add(obs.H, exp.H)
	}
	if o.Features.T {
		add(obs.T, exp.T)
	}
	if o.Features.Delta {
		add(obs.Delta, exp.Delta)
	}
	return total
}

// Options configures estimation.
type Options struct {
	// Objective defaults to DefaultObjective(). A zero FeatureSet is
	// replaced by AllFeatures().
	Objective Objective
	// Rng supplies restart randomness; required.
	Rng *randx.Rand
}

// The optimizer seeds one Nelder–Mead descent from the best point of a
// gridPoints³ grid and runs randomStarts more from random points, each
// from a simplex of edge simplexStep and for at most maxIter
// iterations. The grid seed alone can stop in a worse local optimum
// (TestMomentFitRestartsMatter), so the random restarts stay.
const (
	randomStarts = 8
	gridPoints   = 9
	simplexStep  = 0.08
	maxIter      = 600
)

func (o *Options) fill() error {
	if o.Objective.Features.Count() == 0 {
		o.Objective.Features = AllFeatures()
	}
	if o.Rng == nil {
		return fmt.Errorf("kronmom: Options.Rng is required")
	}
	return nil
}

// Estimate is a fitted initiator with diagnostics.
type Estimate struct {
	Init      skg.Initiator
	K         int
	Objective float64 // objective value at the optimum
	Evals     int     // objective evaluations spent
}

// FitCtx estimates the initiator whose expected features match obs at
// Kronecker power k under a pipeline Run. The returned initiator is
// canonical (A >= C). The multistart descents fan out over run's worker
// budget and the fit is identical for every worker count; a "kronmom"
// stage event pair is emitted, and cancellation aborts the descent with
// run.Err().
func FitCtx(run *pipeline.Run, obs stats.Features, k int, opts Options) (Estimate, error) {
	if err := opts.fill(); err != nil {
		return Estimate{}, err
	}
	if k < 1 || k > 30 {
		return Estimate{}, fmt.Errorf("kronmom: k = %d outside [1, 30]", k)
	}
	done := run.Stage("kronmom")
	f := func(x []float64) float64 {
		return opts.Objective.Eval(obs, k, skg.Initiator{A: x[0], B: x[1], C: x[2]})
	}
	lo := []float64{0, 0, 0}
	hi := []float64{1, 1, 1}
	res, err := optimize.MultiStartCtx(run, f, lo, hi, randomStarts, gridPoints, opts.Rng,
		optimize.NelderMeadOptions{MaxIter: maxIter, Step: simplexStep})
	if err != nil {
		return Estimate{}, err
	}
	init := skg.Initiator{A: res.X[0], B: res.X[1], C: res.X[2]}.Canonical()
	done()
	return Estimate{Init: init, K: k, Objective: res.F, Evals: res.Evals}, nil
}

// FitGraphCtx computes the exact features of g and fits an initiator
// with k = ceil(log2(NumNodes)) unless k > 0 is given. This is the
// non-private KronMom baseline of Table 1. The feature counting and the
// moment fit share run's context and worker budget, and each emits its
// own stage events.
func FitGraphCtx(run *pipeline.Run, g *graph.Graph, k int, opts Options) (Estimate, error) {
	if k <= 0 {
		k = KForNodes(g.NumNodes())
	}
	feats, err := stats.FeaturesOfCtx(run, g)
	if err != nil {
		return Estimate{}, err
	}
	return FitCtx(run, feats, k, opts)
}

// KForNodes returns the smallest k with 2^k >= n (minimum 1).
func KForNodes(n int) int {
	k := 1
	for 1<<k < n {
		k++
	}
	return k
}
