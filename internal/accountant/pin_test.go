package accountant

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpkron/internal/dp"
	"dpkron/internal/faultfs"
)

// mustAccount is Ledger.Account for tests that expect the dataset to exist.
func mustAccount(t *testing.T, led *Ledger, id string) Account {
	t.Helper()
	acct, ok, err := led.Account(id)
	if err != nil || !ok {
		t.Fatalf("account %q: ok %v, err %v", id, ok, err)
	}
	return acct
}

// TestOnDiskPinLedger: testdata/pin.ledger was written by the binary
// whose ledger log header is "DPKL" version 1 and ends in a torn spend.
// It must open with the accounts and receipts it holds, leave the torn
// debit's token unspent, and accept one more debit that a reopen sees.
func TestOnDiskPinLedger(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pin.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := led.Datasets(); err != nil || !reflect.DeepEqual(ids, []string{"ds-a", "ds-b"}) {
		t.Fatalf("Datasets = %v, %v", ids, err)
	}
	near := func(a, b dp.Budget) bool { return math.Abs(a.Eps-b.Eps) < 1e-12 && math.Abs(a.Delta-b.Delta) < 1e-12 }
	a := mustAccount(t, led, "ds-a")
	if a.Budget != (dp.Budget{Eps: 1, Delta: 0.01}) || !near(a.Spent, dp.Budget{Eps: 0.3, Delta: 0.001}) || len(a.Receipts) != 2 ||
		a.Receipts[0].Token != "job-1" || a.Receipts[1].Token != "" || a.Receipts[0].Time == nil || a.Receipts[1].Total.Eps != 0.1 {
		t.Fatalf("ds-a = %+v", a)
	}
	b := mustAccount(t, led, "ds-b")
	if b.Budget != (dp.Budget{Eps: 2}) || !near(b.Spent, dp.Budget{Eps: 0.3}) || len(b.Receipts) != 1 || b.Receipts[0].Token != "job-3" {
		t.Fatalf("ds-b = %+v", b)
	}
	// The torn debit never landed, so its token debits; job-1 did.
	for _, tok := range []string{"job-4", "job-1"} {
		if err := led.SpendToken("ds-a", testReceipt(0.25, 0), tok); err != nil {
			t.Fatal(err)
		}
	}
	if rem := led.Remaining("ds-a"); !near(rem, dp.Budget{Eps: 0.45, Delta: 0.009}) {
		t.Fatalf("remaining = %v, want 0.45, 0.009", rem)
	}
	a = mustAccount(t, must(Open(path)), "ds-a")
	if len(a.Receipts) != 3 || a.Receipts[2].Token != "job-4" || !near(a.Spent, dp.Budget{Eps: 0.55, Delta: 0.001}) {
		t.Fatalf("ds-a after one more debit = %+v", a)
	}
}

// TestIOPinLedger pins the file operations of the ledger calls on the
// fit path: a token debit is one stat, two opens (read the tail, append),
// one write, one fsync and one close; Remaining is one stat and one
// open. A change may lower these counts, never raise them.
func TestIOPinLedger(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	led, err := OpenFS(inj, filepath.Join(t.TempDir(), "ledger.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget("ds-a", dp.Budget{Eps: 10, Delta: 0.5}); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		fn   func() error
		want map[string]int
	}{
		{"SpendToken", func() error { return led.SpendToken("ds-a", testReceipt(0.1, 0.001), "job-1") },
			map[string]int{"stat": 1, "open": 2, "write": 1, "sync": 1, "close": 1}},
		{"Remaining", func() error { led.Remaining("ds-a"); return nil }, map[string]int{"stat": 1, "open": 1}},
		{"SpendToken", func() error { return led.SpendToken("ds-a", testReceipt(0.1, 0.001), "job-2") },
			map[string]int{"stat": 1, "open": 2, "write": 1, "sync": 1, "close": 1}},
	}
	for _, c := range calls {
		n := len(inj.Trace())
		if err := c.fn(); err != nil {
			t.Fatal(err)
		}
		for _, op := range inj.Trace()[n:] {
			kind, _, _ := strings.Cut(op, " ")
			c.want[kind]--
			if c.want[kind] < 0 {
				t.Errorf("%s: more %s ops than the pinned count (%v)", c.name, kind, inj.Trace()[n:])
			}
		}
	}
}
