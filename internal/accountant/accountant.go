// Package accountant turns every noise draw in the module into an
// auditable, charged transaction. The paper's guarantee is per-release:
// one run of Algorithm 1 spends (ε, δ) once, composed sequentially
// across its degree-sequence and triangle-count queries (Theorem 4.9).
// A service fielding many fits against the same graph has no guarantee
// at all unless something tracks cumulative spend — that something is
// this package.
//
// The pieces:
//
//   - A Mechanism describes one calibrated noise primitive (Laplace,
//     vector Laplace or smooth-sensitivity Laplace) and can state its
//     privacy price before it runs.
//   - An Accountant records Mechanism applications as Charges, composes
//     them sequentially (Theorem 4.9), and can refuse charges beyond a
//     configured limit.
//   - A Ledger (ledger.go) persists per-dataset budgets across
//     processes and refuses spends once a dataset's budget is
//     exhausted.
//
// Charging is pure bookkeeping layered over the existing seeded randx
// streams: a mechanism's Apply draws exactly the noise the direct
// dp.Laplace / dp.LaplaceVec calls drew before this package existed, so
// fixed-seed outputs are bit-identical whether or not an accountant is
// attached (pinned by the fingerprint tests at the repo root).
package accountant

import (
	"fmt"
	"sync"
	"time"

	"dpkron/internal/dp"
	"dpkron/internal/randx"
)

// Charge is one recorded mechanism invocation: which query was
// answered, by which mechanism, at what calibration, for what price.
// Charges are safe to release: data-dependent calibration quantities
// (the realized smooth sensitivity, the noise scale derived from it)
// are deliberately absent — only public parameters appear.
type Charge struct {
	// Query names the released quantity ("algorithm1/degree-sequence").
	Query string `json:"query"`
	// Mechanism is the noise primitive applied ("laplace",
	// "laplace-vec", "smooth-laplace").
	Mechanism string `json:"mechanism"`
	// Sensitivity is the global L1 sensitivity the noise was calibrated
	// to. Zero for smooth-sensitivity mechanisms, whose calibration is
	// data-dependent and therefore not released; Beta carries their
	// public smoothing parameter instead.
	Sensitivity float64 `json:"sensitivity,omitempty"`
	// Beta is the smoothing parameter β of a smooth-sensitivity
	// mechanism (public: derived from ε and δ alone).
	Beta float64 `json:"beta,omitempty"`
	// Eps and Delta are the (ε, δ) this application spent.
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta,omitempty"`
}

// Budget returns the (ε, δ) price of the charge.
func (c Charge) Budget() dp.Budget { return dp.Budget{Eps: c.Eps, Delta: c.Delta} }

// Mechanism is a calibrated noise primitive that can state its privacy
// price before it runs. Concrete mechanisms additionally provide an
// Apply method drawing the actual noise; the split lets an Accountant
// (or Ledger) refuse the charge before any noise is consumed from the
// random stream.
type Mechanism interface {
	// Charge is the receipt entry one application records for query.
	Charge(query string) Charge
}

// Laplace is the scalar Laplace mechanism: value + Lap(Sens/Eps),
// (Eps, 0)-DP when Sens is the query's global L1 sensitivity
// (Theorem 4.5 of the paper).
type Laplace struct {
	Sens, Eps float64
}

// Charge implements Mechanism.
func (m Laplace) Charge(query string) Charge {
	return Charge{Query: query, Mechanism: "laplace", Sensitivity: m.Sens, Eps: m.Eps}
}

// Apply perturbs value, drawing one Laplace variate from rng. The
// draw is identical to dp.Laplace with the same parameters.
func (m Laplace) Apply(value float64, rng *randx.Rand) float64 {
	return dp.Laplace(value, m.Sens, m.Eps, rng)
}

// LaplaceVec is the vector Laplace mechanism: i.i.d. Lap(Sens/Eps)
// noise on every coordinate, (Eps, 0)-DP when Sens is the L1 global
// sensitivity of the whole vector.
type LaplaceVec struct {
	Sens, Eps float64
}

// Charge implements Mechanism.
func (m LaplaceVec) Charge(query string) Charge {
	return Charge{Query: query, Mechanism: "laplace-vec", Sensitivity: m.Sens, Eps: m.Eps}
}

// Apply perturbs values in place and returns them, drawing len(values)
// Laplace variates from rng, identically to dp.LaplaceVec.
func (m LaplaceVec) Apply(values []float64, rng *randx.Rand) []float64 {
	return dp.LaplaceVec(values, m.Sens, m.Eps, rng)
}

// SmoothLaplace is the Nissim–Raskhodnikova–Smith smooth-sensitivity
// Laplace mechanism: value + 2·SmoothSens/Eps · Lap(1), (Eps, Delta)-DP
// when SmoothSens is the β-smooth sensitivity at β = Beta =
// Eps/(2·ln(2/Delta)) (Theorem 4.8 of the paper). SmoothSens is
// data-dependent and never appears in the charge; Beta does.
type SmoothLaplace struct {
	SmoothSens, Beta, Eps, Delta float64
}

// Charge implements Mechanism.
func (m SmoothLaplace) Charge(query string) Charge {
	return Charge{Query: query, Mechanism: "smooth-laplace", Beta: m.Beta, Eps: m.Eps, Delta: m.Delta}
}

// Scale is the Laplace scale applied: 2·SmoothSens/Eps. Sensitive
// (depends on the graph through SmoothSens); not for release.
func (m SmoothLaplace) Scale() float64 { return 2 * m.SmoothSens / m.Eps }

// Apply perturbs value, drawing one Laplace variate from rng.
func (m SmoothLaplace) Apply(value float64, rng *randx.Rand) float64 {
	return value + rng.Laplace(m.Scale())
}

// Receipt is the machine-readable record of a sequence of charges: the
// itemized list plus the composed total under the stated policy. It is
// attached to every estimation result and appended to ledgers.
type Receipt struct {
	Policy  string    `json:"policy"`
	Total   dp.Budget `json:"total"`
	Charges []Charge  `json:"charges,omitempty"`
	// Token, when set, makes the ledger debit idempotent: a second
	// SpendToken with the same token on the same dataset is a no-op.
	// The server uses the job id, so a crash between the debit and the
	// journal record cannot double-charge on replay. Receipts attached
	// to estimation results carry no token.
	Token string `json:"token,omitempty"`
	// Time, when set, records when the ledger accepted this spend. The
	// Ledger stamps it at debit time; it feeds the chronological audit
	// report (`dpkron audit`) and never participates in release keying
	// (release.KeyFor reads only the charge parameters and policy).
	Time *time.Time `json:"time,omitempty"`
}

// Accountant records mechanism charges, composes them under a Policy,
// and optionally refuses charges beyond a limit. All methods are safe
// for concurrent use, and all are no-ops on a nil *Accountant (nil
// records nothing and allows everything), so plumbing an optional
// accountant through call sites needs no branching.
type Accountant struct {
	mu       sync.Mutex
	policy   Policy
	limit    *dp.Budget
	observer Observer
	charges  []Charge
}

// Observer receives every Charge decision an accountant makes: the
// attempted charge, the budget remaining under the limit after the
// decision (post-charge on success, unchanged on refusal; zero when
// no limit is set), and the refusal error (nil on success). The
// server uses this to record each debit/refusal on the job's trace as
// a privacy-audit event. Observers run outside the accountant's lock,
// after the decision is final, so they may call back into the
// accountant; they must not themselves charge.
type Observer func(c Charge, remaining dp.Budget, err error)

// New returns an Accountant composing under policy (nil selects
// Sequential) with no spending limit.
func New(policy Policy) *Accountant {
	if policy == nil {
		policy = Sequential{}
	}
	return &Accountant{policy: policy}
}

// WithLimit sets a hard budget and returns the accountant: a Charge
// whose composed total would exceed it is refused with an
// *ExhaustedError. Call before the first charge.
func (a *Accountant) WithLimit(b dp.Budget) *Accountant {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.limit = &b
	return a
}

// WithObserver sets the charge observer and returns the accountant.
// Call before the first charge, like WithLimit.
func (a *Accountant) WithObserver(fn Observer) *Accountant {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observer = fn
	return a
}

// Charge records one application of mechanism m against query. When a
// limit is set and the new composed total would exceed it, the charge
// is refused — nothing is recorded and the caller must not run the
// mechanism (mechanisms separate Charge from Apply precisely so the
// refusal happens before noise is drawn).
func (a *Accountant) Charge(query string, m Mechanism) error {
	if a == nil {
		return nil
	}
	c := m.Charge(query)
	if err := c.Budget().Validate(); err != nil {
		return fmt.Errorf("accountant: invalid charge for %q: %w", query, err)
	}
	rem, observer, err := a.charge(c)
	if observer != nil {
		observer(c, rem, err)
	}
	return err
}

// charge is the locked decision core of Charge; it returns the
// remaining budget after the decision and the observer to notify.
func (a *Accountant) charge(c Charge) (dp.Budget, Observer, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit != nil {
		total := a.policyLocked().Compose(append(a.charges, c))
		if total.Eps > a.limit.Eps+budgetSlack || total.Delta > a.limit.Delta+budgetSlack {
			spent := a.policyLocked().Compose(a.charges)
			return remaining(*a.limit, spent), a.observer, &ExhaustedError{
				Query:     c.Query,
				Requested: c.Budget(),
				Spent:     spent,
				Limit:     *a.limit,
			}
		}
	}
	a.charges = append(a.charges, c)
	var rem dp.Budget
	if a.limit != nil {
		rem = remaining(*a.limit, a.policyLocked().Compose(a.charges))
	}
	return rem, a.observer, nil
}

// budgetSlack absorbs float rounding when comparing composed spends to
// budgets (0.1 summed ten times overshoots 1.0 by ~1e-16); budgets are
// O(1) quantities, so an absolute tolerance is appropriate.
const budgetSlack = 1e-9

func (a *Accountant) policyLocked() Policy {
	if a.policy == nil {
		return Sequential{}
	}
	return a.policy
}

// Len returns the number of recorded charges. Use with ReceiptSince to
// extract the receipt of one release when an accountant serves several.
func (a *Accountant) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.charges)
}

// Total returns the composed budget of everything charged so far.
func (a *Accountant) Total() dp.Budget {
	if a == nil {
		return dp.Budget{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.policyLocked().Compose(a.charges)
}

// Remaining returns the budget left under the limit (zero-limit
// semantics when no limit is set: ok reports whether a limit exists).
func (a *Accountant) Remaining() (b dp.Budget, ok bool) {
	if a == nil {
		return dp.Budget{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit == nil {
		return dp.Budget{}, false
	}
	spent := a.policyLocked().Compose(a.charges)
	return remaining(*a.limit, spent), true
}

// Charges returns a copy of the recorded charges in order.
func (a *Accountant) Charges() []Charge {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Charge(nil), a.charges...)
}

// Receipt returns the itemized receipt of everything charged so far.
func (a *Accountant) Receipt() Receipt { return a.ReceiptSince(0) }

// ReceiptSince returns the receipt covering the charges recorded at
// index from onward (from a prior Len call): the per-release receipt
// when one accountant serves several *sequential* releases. The
// composed total covers only those charges. Index ranges are
// meaningless under concurrent charging — concurrent releases should
// each use their own accountant (with a shared Ledger for the
// cumulative budget).
func (a *Accountant) ReceiptSince(from int) Receipt {
	if a == nil {
		return Receipt{Policy: Sequential{}.Name()}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(a.charges) {
		from = len(a.charges)
	}
	part := append([]Charge(nil), a.charges[from:]...)
	return Receipt{
		Policy:  a.policyLocked().Name(),
		Total:   a.policyLocked().Compose(part),
		Charges: part,
	}
}

// remaining subtracts spent from budget, clamping at zero.
func remaining(budget, spent dp.Budget) dp.Budget {
	r := dp.Budget{Eps: budget.Eps - spent.Eps, Delta: budget.Delta - spent.Delta}
	if r.Eps < 0 {
		r.Eps = 0
	}
	if r.Delta < 0 {
		r.Delta = 0
	}
	return r
}

// ExhaustedError reports a refused charge or spend: the requested
// budget does not fit in what remains. It unwraps to
// ErrBudgetExhausted for errors.Is dispatch.
type ExhaustedError struct {
	// Dataset is set by Ledger refusals; empty for Accountant limits.
	Dataset string
	// Query names the refused charge (empty for whole-receipt spends).
	Query string
	// Requested is the budget the refused charge or receipt asked for.
	Requested dp.Budget
	// Spent and Limit describe the ledger/accountant state at refusal.
	Spent, Limit dp.Budget
}

// Remaining returns the budget still available at the time of refusal.
func (e *ExhaustedError) Remaining() dp.Budget { return remaining(e.Limit, e.Spent) }

func (e *ExhaustedError) Error() string {
	where := "accountant limit"
	if e.Dataset != "" {
		where = "dataset " + e.Dataset
	}
	return fmt.Sprintf("privacy budget exhausted for %s: requested %s, remaining %s of %s",
		where, e.Requested, e.Remaining(), e.Limit)
}

// Is makes errors.Is(err, ErrBudgetExhausted) match.
func (e *ExhaustedError) Is(target error) bool { return target == ErrBudgetExhausted }

// ErrBudgetExhausted is the sentinel every refused charge or spend
// matches via errors.Is.
var ErrBudgetExhausted = errBudgetExhausted{}

type errBudgetExhausted struct{}

func (errBudgetExhausted) Error() string { return "accountant: privacy budget exhausted" }
