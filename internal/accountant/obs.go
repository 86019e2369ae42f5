package accountant

import (
	"dpkron/internal/dp"
	"dpkron/internal/obs"
)

// ledgerMetrics is the ledger's telemetry: debit/refusal counters and
// remaining-budget gauges, all per dataset. The zero value (nil
// collectors) no-ops, so an uninstrumented ledger pays one nil check
// per spend.
type ledgerMetrics struct {
	debits   *obs.CounterVec
	refusals *obs.CounterVec
	remEps   *obs.GaugeVec
	remDelta *obs.GaugeVec
}

// Instrument registers the ledger's metrics on reg and primes the
// remaining-budget gauges from the current on-disk state. Call once,
// before serving traffic; a nil reg leaves the ledger uninstrumented.
// The per-dataset labels are operator-bounded: datasets exist because
// an operator imported them or set budgets on them.
func (l *Ledger) Instrument(reg *obs.Registry) {
	l.met = ledgerMetrics{
		debits:   reg.CounterVec("dpkron_ledger_debits_total", "Privacy-budget debits that landed, by dataset.", "dataset"),
		refusals: reg.CounterVec("dpkron_ledger_refusals_total", "Spends refused for insufficient remaining budget, by dataset.", "dataset"),
		remEps:   reg.GaugeVec("dpkron_ledger_remaining_epsilon", "Remaining privacy budget (epsilon), by dataset.", "dataset"),
		remDelta: reg.GaugeVec("dpkron_ledger_remaining_delta", "Remaining privacy budget (delta), by dataset.", "dataset"),
	}
	_ = l.withLocked(func() error {
		for id, a := range l.accts {
			l.met.setRemaining(id, a.remaining())
		}
		return nil
	})
}

// setRemaining publishes a dataset's remaining budget — the
// operational readout of the accountant's composition state.
func (m ledgerMetrics) setRemaining(dataset string, rem dp.Budget) {
	m.remEps.With(dataset).Set(rem.Eps)
	m.remDelta.With(dataset).Set(rem.Delta)
}
