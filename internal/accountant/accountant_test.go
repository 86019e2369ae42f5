package accountant

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dpkron/internal/dp"
	"dpkron/internal/randx"
)

func TestSequentialChargesSumExactly(t *testing.T) {
	acc := New(nil)
	if err := acc.Charge("q1", Laplace{Sens: 2, Eps: 0.125}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Charge("q2", LaplaceVec{Sens: 2, Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Charge("q3", SmoothLaplace{SmoothSens: 3, Beta: 0.01, Eps: 0.5, Delta: 0.0625}); err != nil {
		t.Fatal(err)
	}
	// The charge values are dyadic rationals, so the sums are exact in
	// floating point: "sequential charges sum exactly" is ==, not ≈.
	if got := acc.Total(); got.Eps != 0.875 || got.Delta != 0.0625 {
		t.Fatalf("Total = %v, want (0.875, 0.0625)", got)
	}
	ch := acc.Charges()
	if len(ch) != 3 || ch[0].Query != "q1" || ch[1].Mechanism != "laplace-vec" {
		t.Fatalf("Charges = %+v", ch)
	}
	// Mutating the copy must not affect the accountant.
	ch[0].Query = "x"
	if acc.Charges()[0].Query != "q1" {
		t.Fatal("Charges returned aliased storage")
	}
	rec := acc.Receipt()
	if rec.Policy != "sequential" || rec.Total != acc.Total() || len(rec.Charges) != 3 {
		t.Fatalf("Receipt = %+v", rec)
	}
	// Per-release slicing.
	part := acc.ReceiptSince(1)
	if len(part.Charges) != 2 || part.Total.Eps != 0.75 {
		t.Fatalf("ReceiptSince(1) = %+v", part)
	}
}

// TestQuickSequentialSums: for arbitrary charge sets the sequential
// total equals the running float sum of the parts (exact association
// order, no reordering).
func TestQuickSequentialSums(t *testing.T) {
	f := func(epsRaw []uint16, deltaRaw []uint16) bool {
		n := len(epsRaw)
		if len(deltaRaw) < n {
			n = len(deltaRaw)
		}
		acc := New(nil)
		var wantEps, wantDelta float64
		for i := 0; i < n; i++ {
			eps := (float64(epsRaw[i]) + 1) / 1000
			delta := float64(deltaRaw[i]) / 200000
			if err := acc.Charge("q", SmoothLaplace{Beta: 1, Eps: eps, Delta: delta}); err != nil {
				return false
			}
			wantEps += eps
			wantDelta += delta
		}
		got := acc.Total()
		return got.Eps == wantEps && got.Delta == wantDelta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccountantLimitRefusal(t *testing.T) {
	acc := New(nil).WithLimit(dp.Budget{Eps: 0.5, Delta: 0.01})
	if err := acc.Charge("a", Laplace{Sens: 1, Eps: 0.3}); err != nil {
		t.Fatal(err)
	}
	err := acc.Charge("b", Laplace{Sens: 1, Eps: 0.3})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-limit charge error = %v, want ErrBudgetExhausted", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error %T is not *ExhaustedError", err)
	}
	if got := ex.Remaining(); math.Abs(got.Eps-0.2) > 1e-12 {
		t.Fatalf("Remaining = %v, want eps 0.2", got)
	}
	// The refused charge was not recorded; a fitting one still lands.
	if acc.Len() != 1 {
		t.Fatalf("refused charge was recorded: %d charges", acc.Len())
	}
	if err := acc.Charge("c", Laplace{Sens: 1, Eps: 0.2}); err != nil {
		t.Fatalf("exact-fit charge refused: %v", err)
	}
	// Budget slack: ten 0.1-charges against a 1.0 limit must all fit
	// despite float accumulation error.
	acc = New(nil).WithLimit(dp.Budget{Eps: 1})
	for i := 0; i < 10; i++ {
		if err := acc.Charge("q", Laplace{Sens: 1, Eps: 0.1}); err != nil {
			t.Fatalf("charge %d refused under float rounding: %v", i, err)
		}
	}
	if err := acc.Charge("q", Laplace{Sens: 1, Eps: 0.1}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("eleventh charge error = %v, want refusal", err)
	}
}

func TestAccountantNilSafe(t *testing.T) {
	var acc *Accountant
	if err := acc.Charge("q", Laplace{Sens: 1, Eps: 0.5}); err != nil {
		t.Fatalf("nil accountant refused a charge: %v", err)
	}
	if acc.Len() != 0 || acc.Total() != (dp.Budget{}) || acc.Charges() != nil {
		t.Fatal("nil accountant recorded state")
	}
	if rec := acc.Receipt(); rec.Policy != "sequential" || len(rec.Charges) != 0 {
		t.Fatalf("nil Receipt = %+v", rec)
	}
}

func TestAccountantRejectsInvalidCharge(t *testing.T) {
	acc := New(nil)
	if err := acc.Charge("q", Laplace{Sens: 1, Eps: 0}); err == nil {
		t.Fatal("zero-eps charge accepted")
	}
	if err := acc.Charge("q", SmoothLaplace{Beta: 1, Eps: 0.1, Delta: 1.5}); err == nil {
		t.Fatal("delta >= 1 charge accepted")
	}
	if acc.Len() != 0 {
		t.Fatal("invalid charges recorded")
	}
}

// TestMechanismApplyMatchesDirectDraws: drawing through a mechanism is
// bit-identical to the direct dp calls for the same rng state — the
// accounting layer must never perturb the noise stream.
func TestMechanismApplyMatchesDirectDraws(t *testing.T) {
	direct := randx.New(11)
	metered := randx.New(11)

	if got, want := (Laplace{Sens: 2, Eps: 0.3}).Apply(5, metered), dp.Laplace(5, 2, 0.3, direct); got != want {
		t.Fatalf("Laplace: %v != %v", got, want)
	}
	vals := []float64{1, 2, 3, 4}
	gotV := LaplaceVec{Sens: 2, Eps: 0.3}.Apply(vals, metered)
	wantV := dp.LaplaceVec(vals, 2, 0.3, direct)
	for i := range gotV {
		if gotV[i] != wantV[i] {
			t.Fatalf("LaplaceVec[%d]: %v != %v", i, gotV[i], wantV[i])
		}
	}
	m := SmoothLaplace{SmoothSens: 3, Beta: 0.05, Eps: 0.4, Delta: 0.01}
	if got, want := m.Apply(7, metered), 7+direct.Laplace(2*3/0.4); got != want {
		t.Fatalf("SmoothLaplace: %v != %v", got, want)
	}
}

// TestChargesNeverLeakCalibration: smooth-sensitivity charges must not
// carry the data-dependent smooth sensitivity — only public parameters.
func TestChargesNeverLeakCalibration(t *testing.T) {
	c := SmoothLaplace{SmoothSens: 123.456, Beta: 0.05, Eps: 0.4, Delta: 0.01}.Charge("q")
	if c.Sensitivity != 0 {
		t.Fatalf("smooth charge leaked sensitivity %v", c.Sensitivity)
	}
	if c.Beta != 0.05 || c.Eps != 0.4 || c.Delta != 0.01 {
		t.Fatalf("smooth charge lost public params: %+v", c)
	}
}
