// Package core implements the paper's primary contribution, Algorithm 1:
// a differentially private estimator Θ̃ of the stochastic Kronecker graph
// initiator matrix.
//
// Given a sensitive graph G and a privacy budget (ε, δ), the algorithm
//
//  1. computes the degree vector of G,
//  2. releases an (ε/2, 0)-DP sorted degree sequence d̃ via the Hay et
//     al. mechanism (Laplace noise + constrained inference),
//  3. derives the private feature counts Ẽ, H̃, T̃ from d̃ (Fact 4.6),
//  4. computes the β-smooth sensitivity of the triangle count, and
//  5. releases an (ε/2, δ)-DP triangle count Δ̃ (Nissim et al.),
//  6. feeds {Ẽ, H̃, T̃, Δ̃} to the Gleich–Owen moment objective
//     (Equation 2) to obtain Θ̃.
//
// By sequential composition (Theorem 4.9) the released estimator is
// (ε, δ)-differentially private (Corollary 4.11); step 6 is
// post-processing and costs nothing. Sampling the SKG defined by Θ̃
// yields synthetic graphs that mimic the statistics of G.
package core

import (
	"fmt"

	"dpkron/internal/accountant"
	"dpkron/internal/degseq"
	"dpkron/internal/dp"
	"dpkron/internal/graph"
	"dpkron/internal/kronmom"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
	"dpkron/internal/smoothsens"
	"dpkron/internal/stats"
)

// Options configures the private estimator.
type Options struct {
	// Eps is the total ε budget, split evenly between the degree
	// sequence and the triangle count. Required, > 0.
	Eps float64
	// Delta is the δ of the triangle mechanism; the overall guarantee is
	// (Eps, Delta). Required, in (0, 1).
	Delta float64
	// K is the Kronecker power; 0 infers the smallest k with 2^k >= n.
	// The node count is public under edge differential privacy.
	K int
	// Objective is the Equation 2 configuration (default: DistSq/NormF²
	// over all four features, as in the paper's experiments).
	Objective kronmom.Objective
	// RandomStarts and GridPoints tune the moment optimizer
	// (see kronmom.Options).
	RandomStarts int
	GridPoints   int
	// KeepNonpositiveDelta disables the robustness rule that drops the
	// triangle feature from the moment objective when the released Δ̃ is
	// non-positive. A non-positive Δ̃ is pure noise (the true count is
	// non-negative), and the NormF² weighting of Equation 2 then forces
	// the fit toward degenerate zero-triangle models; dropping the
	// feature is post-processing on released values and costs no
	// privacy. Set this to reproduce the paper's Algorithm 1 verbatim.
	KeepNonpositiveDelta bool
	// Rng is required; all noise and optimizer randomness flows from it.
	Rng *randx.Rand
	// Accountant, when set, is charged for every mechanism of this run
	// before its noise is drawn; a refused charge (the accountant's
	// budget limit would be exceeded) aborts the estimate with that
	// error and no further noise is consumed. The accountant may be
	// shared across *sequential* releases — the Result's receipt then
	// covers only this run's charges. Concurrent runs must each use
	// their own accountant (their charges would interleave into one
	// receipt otherwise); enforce one cumulative budget across
	// concurrent fits with a shared accountant.Ledger instead, as the
	// server does. Nil runs under a fresh unlimited sequential
	// accountant; either way the receipt lands on the Result, and
	// charging never perturbs the rng stream (fixed-seed outputs are
	// bit-identical with or without an accountant).
	Accountant *accountant.Accountant
}

// Result is the outcome of the private estimation.
type Result struct {
	// Init is the released private initiator Θ̃ (canonical, A >= C).
	Init skg.Initiator
	// K is the Kronecker power used.
	K int
	// Features are the private feature counts fed to the moment
	// objective. Safe to release.
	Features stats.Features
	// DegreeSeq is the released private sorted degree sequence. Safe to
	// release.
	DegreeSeq []float64
	// Triangles carries the smooth-sensitivity calibration details.
	// Only its Noisy field is differentially private: Exact is the
	// sensitive true count, and SmoothSen/Scale are data-dependent
	// calibration quantities that the mechanism does not release. All
	// three are retained for experiment reporting only.
	Triangles smoothsens.Result
	// DeltaDropped records that the released Δ̃ was non-positive and the
	// triangle feature was excluded from the moment objective (see
	// Options.KeepNonpositiveDelta).
	DeltaDropped bool
	// Moment is the optimizer diagnostic for the final fit.
	Moment kronmom.Estimate
	// Privacy is the composed (ε, δ) guarantee of everything released.
	Privacy dp.Budget
	// Charges itemizes the budget per mechanism.
	Charges []accountant.Charge
	// Receipt is the machine-readable spend record of this run: the
	// charges above plus their composed total under the accountant's
	// policy. Safe to release (data-dependent calibration quantities
	// never appear in receipts).
	Receipt accountant.Receipt
}

// PlannedReceipt returns the exact receipt a successful Estimate run
// with total budget (eps, delta) will produce, without running
// anything: Algorithm 1's charge schedule is data-independent — ε/2 to
// the degree sequence, (ε/2, δ) to the triangle count — so a ledger
// can be debited at admission time, before any sensitive data is
// touched. That admission-time debit is what keeps concurrent fits
// from jointly overdrawing a shared ledger.
func PlannedReceipt(eps, delta float64) accountant.Receipt {
	half := eps / 2
	charges := []accountant.Charge{
		accountant.LaplaceVec{Sens: degseq.GlobalSensitivity, Eps: half}.Charge(degseq.Query),
		accountant.SmoothLaplace{Beta: smoothsens.BetaFor(half, delta), Eps: half, Delta: delta}.Charge(smoothsens.Query),
	}
	return accountant.Receipt{
		Policy:  accountant.Sequential{}.Name(),
		Total:   accountant.Sequential{}.Compose(charges),
		Charges: charges,
	}
}

// Model returns the released SKG model, ready for synthetic sampling.
func (r *Result) Model() skg.Model { return skg.Model{Init: r.Init, K: r.K} }

// EstimateCtx runs Algorithm 1 on g under a pipeline Run (nil means
// background on all cores). The parallel stages (the smooth-sensitivity
// scan, the exact triangle count and the moment optimizer) share run's
// worker budget, and the released estimate is identical for every
// worker count. One stage event pair per algorithm stage is emitted
// under the "algorithm1/" prefix (degree-release, feature-derivation,
// triangle-release, moment-fit), the context is checked between stages
// and inside every parallel stage, and a cancelled run returns
// run.Err(). Cancellation consumes no randomness: a run that is never
// cancelled releases the same estimate for the same seed whatever its
// context.
func EstimateCtx(run *pipeline.Run, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("core: Options.Rng is required")
	}
	budget := dp.Budget{Eps: opts.Eps, Delta: opts.Delta}
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	if opts.Delta == 0 {
		return nil, fmt.Errorf("core: the smooth-sensitivity triangle mechanism requires delta > 0")
	}
	k := opts.K
	if k <= 0 {
		k = kronmom.KForNodes(g.NumNodes())
	}
	if 1<<k < g.NumNodes() {
		return nil, fmt.Errorf("core: 2^%d < %d nodes", k, g.NumNodes())
	}
	alg := run.Sub("algorithm1")

	acc := opts.Accountant
	if acc == nil {
		acc = accountant.New(nil)
	}
	// The accountant may be shared across releases; the receipt of this
	// run covers only the charges recorded from here on.
	chargeBase := acc.Len()
	half := opts.Eps / 2

	// Steps 1–3: private degree sequence and degree-derived features.
	if err := alg.Err(); err != nil {
		return nil, err
	}
	stageDone := alg.Stage("degree-release")
	dtilde, err := degseq.PrivateAcc(acc, g, half, opts.Rng)
	if err != nil {
		return nil, err
	}
	stageDone()
	stageDone = alg.Stage("feature-derivation")
	feats := stats.FeaturesFromDegrees(dtilde)
	stageDone()

	// Steps 4–5: private triangle count via smooth sensitivity. The
	// smoothsens stage emits its own "triangle-release" events under the
	// algorithm1 prefix.
	if err := alg.Err(); err != nil {
		return nil, err
	}
	tri, err := smoothsens.PrivateTrianglesCtx(alg, acc, g, half, opts.Delta, opts.Rng)
	if err != nil {
		return nil, err
	}
	feats.Delta = tri.Noisy

	// Step 6: moment matching on the private features (post-processing).
	objective := opts.Objective
	if objective.Features.Count() == 0 {
		objective.Features = kronmom.AllFeatures()
	}
	deltaDropped := false
	if !opts.KeepNonpositiveDelta && feats.Delta <= 0 && objective.Features.Delta {
		objective.Features.Delta = false
		deltaDropped = true
	}
	stageDone = alg.Stage("moment-fit")
	est, err := kronmom.FitCtx(alg.Sub("moment-fit"), feats, k, kronmom.Options{
		Objective:    objective,
		RandomStarts: opts.RandomStarts,
		GridPoints:   opts.GridPoints,
		Rng:          opts.Rng.Split(),
	})
	if err != nil {
		return nil, err
	}
	stageDone()

	receipt := acc.ReceiptSince(chargeBase)
	return &Result{
		Init:         est.Init,
		K:            k,
		Features:     feats,
		DegreeSeq:    dtilde,
		Triangles:    tri,
		Moment:       est,
		Privacy:      receipt.Total,
		Charges:      receipt.Charges,
		Receipt:      receipt,
		DeltaDropped: deltaDropped,
	}, nil
}
