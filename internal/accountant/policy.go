package accountant

import "dpkron/internal/dp"

// Policy composes a sequence of charges into one (ε, δ) guarantee.
// Sequential is the only implementation; the accountant only requires
// that Compose be monotone in its input (more charges never shrink the
// total).
type Policy interface {
	// Name identifies the policy in receipts ("sequential").
	Name() string
	// Compose returns the composed guarantee of the charges.
	Compose(charges []Charge) dp.Budget
}

// Sequential is basic composition: ε and δ add across charges
// (Theorem 4.9 of the paper; dp.Compose).
type Sequential struct{}

// Name implements Policy.
func (Sequential) Name() string { return "sequential" }

// Compose implements Policy.
func (Sequential) Compose(charges []Charge) dp.Budget {
	parts := make([]dp.Budget, len(charges))
	for i, c := range charges {
		parts[i] = c.Budget()
	}
	return dp.Compose(parts...)
}
