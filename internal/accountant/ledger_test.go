package accountant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dpkron/internal/dp"
	"dpkron/internal/faultfs"
	"dpkron/internal/frame"
	"dpkron/internal/graph"
)

func testReceipt(eps, delta float64) Receipt {
	c := Charge{Query: "q", Mechanism: "laplace", Sensitivity: 1, Eps: eps, Delta: delta}
	return Receipt{Policy: "sequential", Total: c.Budget(), Charges: []Charge{c}}
}

func TestLedgerLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	// Default-deny: spending on an unconfigured dataset is refused.
	err = led.Spend("ds-a", testReceipt(0.1, 0))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("unconfigured spend error = %v, want refusal", err)
	}

	if err := led.SetBudget("ds-a", dp.Budget{Eps: 0.5, Delta: 0.02}); err != nil {
		t.Fatal(err)
	}
	if err := led.Spend("ds-a", testReceipt(0.3, 0.01)); err != nil {
		t.Fatal(err)
	}
	if rem := led.Remaining("ds-a"); math.Abs(rem.Eps-0.2) > 1e-12 || math.Abs(rem.Delta-0.01) > 1e-12 {
		t.Fatalf("Remaining = %v", rem)
	}

	// Overdraw in either coordinate refuses; the error carries state.
	err = led.Spend("ds-a", testReceipt(0.3, 0))
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("overdraw error = %v", err)
	}
	if ex.Dataset != "ds-a" || math.Abs(ex.Remaining().Eps-0.2) > 1e-12 {
		t.Fatalf("refusal state = %+v", ex)
	}
	if err := led.Spend("ds-a", testReceipt(0.1, 0.02)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("delta overdraw error = %v, want refusal", err)
	}

	// Persistence: a fresh Open sees budget, spend, and receipts.
	led2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	acct, ok := led2.Account("ds-a")
	if !ok {
		t.Fatal("dataset lost across reopen")
	}
	if acct.Budget.Eps != 0.5 || math.Abs(acct.Spent.Eps-0.3) > 1e-12 || len(acct.Receipts) != 1 {
		t.Fatalf("reopened account = %+v", acct)
	}
	if acct.Receipts[0].Charges[0].Query != "q" {
		t.Fatalf("receipt content lost: %+v", acct.Receipts[0])
	}

	// Reset zeroes spend but keeps the budget.
	if err := led2.Reset("ds-a"); err != nil {
		t.Fatal(err)
	}
	if rem := led2.Remaining("ds-a"); rem.Eps != 0.5 {
		t.Fatalf("post-reset remaining = %v", rem)
	}
	if err := led2.Reset("ds-missing"); err == nil {
		t.Fatal("reset of unknown dataset succeeded")
	}

	// Datasets are sorted.
	if err := led2.SetBudget("ds-0", dp.Budget{Eps: 1}); err != nil {
		t.Fatal(err)
	}
	ids := led2.Datasets()
	if len(ids) != 2 || ids[0] != "ds-0" || ids[1] != "ds-a" {
		t.Fatalf("Datasets = %v", ids)
	}
}

// TestLedgerCrossHandleVisibility: two handles on one ledger file (the
// `dpkron serve` / `dpkron budget set` split, here in-process) observe
// each other's writes, because every operation first reads what other
// handles appended, under the cross-process lock — a budget set after
// the server opened its handle must be honored, and spends through
// either handle accrue.
func TestLedgerCrossHandleVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	server, err := Open(path) // long-lived handle, opened first
	if err != nil {
		t.Fatal(err)
	}
	admin, err := Open(path) // a later `dpkron budget set` invocation
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.SetBudget("ds-a", dp.Budget{Eps: 1}); err != nil {
		t.Fatal(err)
	}
	// The server handle sees the budget without reopening.
	if err := server.Spend("ds-a", testReceipt(0.5, 0)); err != nil {
		t.Fatalf("server handle missed admin's budget: %v", err)
	}
	// And the admin handle sees the server's spend.
	if rem := admin.Remaining("ds-a"); rem.Eps != 0.5 {
		t.Fatalf("admin handle remaining = %v, want 0.5", rem)
	}
	// Joint overdraw across handles is refused.
	if err := admin.Spend("ds-a", testReceipt(0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := server.Spend("ds-a", testReceipt(0.5, 0)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("cross-handle overdraw error = %v, want refusal", err)
	}
}

// TestLedgerCrashMidWrite: creating a ledger (and converting a v1 one)
// writes a tmp file and renames it into place, so a crash leaves the
// old file or the new one plus possibly a garbage .tmp — which Open
// must ignore and which must not block the next write.
func TestLedgerCrashMidWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget("ds-a", dp.Budget{Eps: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a torn, half-written tmp file.
	if err := os.WriteFile(path+".tmp", []byte(`{"version":1,"datasets":{"ds-a"`), 0o644); err != nil {
		t.Fatal(err)
	}
	led2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with stale tmp failed: %v", err)
	}
	if acct, ok := led2.Account("ds-a"); !ok || acct.Budget.Eps != 1 {
		t.Fatalf("state lost to stale tmp: %+v", acct)
	}
	// The next successful write replaces the garbage tmp.
	if err := led2.Spend("ds-a", testReceipt(0.25, 0)); err != nil {
		t.Fatal(err)
	}
	led3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rem := led3.Remaining("ds-a"); rem.Eps != 0.75 {
		t.Fatalf("remaining after recovery = %v", rem)
	}

	// A corrupt main file is a hard error, not silent data loss.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("corrupt ledger opened without error")
	}
}

// TestLedgerConcurrentSpendNeverOversubscribes: N goroutines race to
// spend unit receipts from a budget of K < N; exactly K must succeed.
// Run under -race in CI.
func TestLedgerConcurrentSpendNeverOversubscribes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const budget, spenders = 5, 20
	if err := led.SetBudget("ds-a", dp.Budget{Eps: budget}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]error, spenders)
	for i := 0; i < spenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = led.Spend("ds-a", testReceipt(1, 0))
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range results {
		switch {
		case err == nil:
			ok++
		case !errors.Is(err, ErrBudgetExhausted):
			t.Fatalf("unexpected spend error: %v", err)
		}
	}
	if ok != budget {
		t.Fatalf("%d spends succeeded, want exactly %d", ok, budget)
	}
	if rem := led.Remaining("ds-a"); math.Abs(rem.Eps) > 1e-9 {
		t.Fatalf("remaining = %v, want 0", rem)
	}
	// Disk agrees with memory.
	led2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if acct, _ := led2.Account("ds-a"); len(acct.Receipts) != budget {
		t.Fatalf("persisted %d receipts, want %d", len(acct.Receipts), budget)
	}
}

func TestDatasetIDStableAndContentAddressed(t *testing.T) {
	g1 := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	g2 := graph.FromEdges(4, [][2]int{{2, 3}, {0, 1}, {1, 2}, {1, 0}}) // same graph, shuffled input
	g3 := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	id1, id2, id3 := DatasetID(g1), DatasetID(g2), DatasetID(g3)
	if id1 != id2 {
		t.Fatalf("same graph, different ids: %s vs %s", id1, id2)
	}
	if id1 == id3 {
		t.Fatalf("different graphs share id %s", id1)
	}
	if len(id1) != len("ds-")+16 {
		t.Fatalf("id %q has unexpected shape", id1)
	}
	// Node count matters even with identical edges.
	g4 := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if DatasetID(g4) == id1 {
		t.Fatal("node count not part of the fingerprint")
	}
}

// TestSpendTokenIdempotent: re-issuing a token-bearing debit charges
// exactly once — the replay path a server restart takes after a crash
// between the ledger debit and its journal acknowledgement.
func TestSpendTokenIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget("ds-a", dp.Budget{Eps: 1, Delta: 0.01}); err != nil {
		t.Fatal(err)
	}
	r := testReceipt(0.4, 0)
	for i := 0; i < 3; i++ {
		if err := led.SpendToken("ds-a", r, "job-1"); err != nil {
			t.Fatalf("SpendToken #%d: %v", i+1, err)
		}
	}
	acct, _ := led.Account("ds-a")
	if math.Abs(acct.Spent.Eps-0.4) > 1e-12 {
		t.Fatalf("three same-token spends debited eps=%v, want 0.4", acct.Spent.Eps)
	}
	if len(acct.Receipts) != 1 {
		t.Fatalf("%d receipts recorded, want 1", len(acct.Receipts))
	}

	// Idempotency survives a process restart (it lives in the file, not
	// in memory) and is per-token: a fresh token debits again.
	led2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := led2.SpendToken("ds-a", r, "job-1"); err != nil {
		t.Fatalf("replayed SpendToken after reopen: %v", err)
	}
	if err := led2.SpendToken("ds-a", r, "job-2"); err != nil {
		t.Fatalf("fresh-token SpendToken: %v", err)
	}
	acct, _ = led2.Account("ds-a")
	if math.Abs(acct.Spent.Eps-0.8) > 1e-12 {
		t.Fatalf("spent eps=%v after one replay + one fresh debit, want 0.8", acct.Spent.Eps)
	}

	// Tokenless Spend never matches a token.
	if err := led2.SpendToken("ds-a", r, ""); err == nil {
		t.Fatal("SpendToken accepted an empty token")
	}
}

// TestLedgerInjectedFaults drives a debit through every fault point of
// its append — the open of the ledger file for append, a torn write, a
// failed fsync — and the v1 conversion's rename, and asserts the debit
// never lands half-way: the spend reports the error, the file's bytes
// are unchanged, and both the in-memory and the reopened state still
// show the pre-spend balance.
func TestLedgerInjectedFaults(t *testing.T) {
	cases := []struct {
		name string
		// v1 puts a v1 JSON ledger on disk after the handle is opened,
		// so the spend itself converts it.
		v1    bool
		fault faultfs.Fault
	}{
		// The spend's first open reads the appended tail; the second
		// opens the file for the append.
		{"open", false, faultfs.Fault{Op: faultfs.OpOpen, Path: "ledger.json", After: 1}},
		{"write", false, faultfs.Fault{Op: faultfs.OpWrite, Path: "ledger.json", Short: 10}},
		{"sync", false, faultfs.Fault{Op: faultfs.OpSync, Path: "ledger.json"}},
		{"rename", true, faultfs.Fault{Op: faultfs.OpRename, Path: "ledger.json.tmp"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			path := filepath.Join(t.TempDir(), "ledger.json")
			led, err := OpenFS(inj, path)
			if err != nil {
				t.Fatal(err)
			}
			budget := dp.Budget{Eps: 1, Delta: 0.01}
			if c.v1 {
				v1 := `{"version":1,"datasets":{"ds-a":{"budget":{"eps":1,"delta":0.01},"spent":{"eps":0,"delta":0}}}}`
				if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := led.SetBudget("ds-a", budget); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			inj.Fail(c.fault)
			if err := led.Spend("ds-a", testReceipt(0.4, 0)); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("spend under %s fault: %v, want ErrInjected", c.name, err)
			}
			if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
				t.Fatalf("failed spend changed the file (%v):\n%q\nwas\n%q", err, after, before)
			}
			// The failed debit must not exist, in memory or on disk.
			acct, ok := led.Account("ds-a")
			if !ok || acct.Budget != budget || acct.Spent.Eps != 0 || len(acct.Receipts) != 0 {
				t.Fatalf("failed spend left state behind: %+v", acct)
			}
			led2, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after %s fault: %v", c.name, err)
			}
			acct, ok = led2.Account("ds-a")
			if !ok || acct.Spent.Eps != 0 || len(acct.Receipts) != 0 {
				t.Fatalf("failed spend reached disk: %+v", acct)
			}
			// And the ledger keeps working once the fault clears.
			if err := led.Spend("ds-a", testReceipt(0.4, 0)); err != nil {
				t.Fatalf("spend after fault cleared: %v", err)
			}
			if rem := led2.Remaining("ds-a"); math.Abs(rem.Eps-0.6) > 1e-12 {
				t.Fatalf("other handle's remaining after the retried spend = %v, want 0.6", rem)
			}
		})
	}
}

// spendN opens a ledger at path with one budgeted dataset and n
// token-bearing debits of 0.1.
func spendN(t *testing.T, path string, n int) *Ledger {
	t.Helper()
	led, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget("ds-a", dp.Budget{Eps: 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := led.SpendToken("ds-a", testReceipt(0.1, 0), fmt.Sprintf("job-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return led
}

// TestLedgerTornTail: a partial final record — what a crash mid-append
// leaves — is ignored by every reader, including a handle that was
// already open, and cut by the next append, after which the whole log
// decodes again.
func TestLedgerTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	live := spendN(t, path, 3)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear a fourth debit: append all but the last byte of its frame,
	// taken from a copy of the ledger that took it.
	ref := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(ref, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := must(Open(ref)).SpendToken("ds-a", testReceipt(0.1, 0), "job-3"); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	for name, led := range map[string]*Ledger{"live": live, "reopened": must(Open(path))} {
		acct, ok := led.Account("ds-a")
		if !ok || len(acct.Receipts) != 3 || math.Abs(acct.Spent.Eps-0.3) > 1e-12 {
			t.Fatalf("%s handle over a torn tail: %+v", name, acct)
		}
	}
	// The torn debit's token did not land: spending it debits.
	if err := live.SpendToken("ds-a", testReceipt(0.1, 0), "job-3"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeLog(data)
	if err != nil || st.size != int64(len(data)) {
		t.Fatalf("log after the append: size %d of %d, err %v", st.size, len(data), err)
	}
	if acct, _ := must(Open(path)).Account("ds-a"); len(acct.Receipts) != 4 || math.Abs(acct.Spent.Eps-0.4) > 1e-12 {
		t.Fatalf("after cutting the torn tail: %+v", acct)
	}
}

// TestLedgerCorruptInterior: a damaged record with complete bytes after
// it is a typed ErrCorrupt — on Open, and for a live handle whose next
// read reaches it — and a spend against it fails closed.
func TestLedgerCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	live := spendN(t, path, 1)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Another handle appends two more debits; then a byte of the first
	// of them flips.
	other := must(Open(path))
	for i := 0; i < 2; i++ {
		if err := other.Spend("ds-a", testReceipt(0.1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(valid)+5] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over interior damage: %v, want ErrCorrupt", err)
	}
	if err := live.Spend("ds-a", testReceipt(0.1, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("spend over interior damage: %v, want ErrCorrupt", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(data) {
		t.Fatalf("a refused spend changed the damaged file (%v)", err)
	}
	// An unknown record kind is damage too, not something to skip.
	bad := frame.Append(append([]byte(nil), valid...), []byte(`{"op":"refund","dataset":"ds-a"}`))
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an unknown record: %v, want ErrCorrupt", err)
	}
}

// TestLedgerV1Conversion: a v1 JSON ledger opens as the same accounts
// — budgets, spends bit for bit, receipts with their times and tokens —
// and is rewritten as a log once; a later Open leaves the file alone.
func TestLedgerV1Conversion(t *testing.T) {
	at := time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC)
	r1, r2, r3 := testReceipt(0.1, 0.001), testReceipt(0.2, 0), testReceipt(0.3, 0.002)
	r1.Token, r1.Time = "job-1", &at
	r2.Time = &at
	old := map[string]*Account{
		// Spent is deliberately not the sum of the receipts: conversion
		// must keep the file's totals, not recompute them.
		"ds-a": {Budget: dp.Budget{Eps: 1, Delta: 0.01}, Spent: dp.Budget{Eps: 0.30000000000000004, Delta: 0.001}, Receipts: []Receipt{r1, r2}},
		"ds-b": {Budget: dp.Budget{Eps: 2}, Spent: r3.Total, Receipts: []Receipt{r3}},
		"ds-c": {Budget: dp.Budget{Eps: 0.5}},
	}
	v1, err := json.MarshalIndent(map[string]any{"version": 1, "datasets": old}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	led := must(Open(path))
	converted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(converted), string(logMagic)) {
		t.Fatalf("ledger not converted: %.40q", converted)
	}
	if ids := led.Datasets(); !slices.Equal(ids, []string{"ds-a", "ds-b", "ds-c"}) {
		t.Fatalf("Datasets = %v", ids)
	}
	for id, want := range old {
		got, ok := led.Account(id)
		if !ok || !reflect.DeepEqual(got, *want) {
			t.Fatalf("%s converted to %+v, want %+v", id, got, *want)
		}
	}
	// The converted token still makes its debit idempotent.
	if err := led.SpendToken("ds-a", r1, "job-1"); err != nil {
		t.Fatal(err)
	}
	if acct, _ := led.Account("ds-a"); len(acct.Receipts) != 2 {
		t.Fatalf("replayed converted token debited again: %d receipts", len(acct.Receipts))
	}
	// Conversion happens once: reopening reads the log as it is.
	must(Open(path))
	if again, err := os.ReadFile(path); err != nil || string(again) != string(converted) {
		t.Fatalf("second Open rewrote the converted ledger (%v)", err)
	}
}

// TestLedgerIncrementalReads: once a handle has read the log, its
// operations read only what other handles appended since — never the
// whole file — until the file is replaced, when it re-reads it whole.
func TestLedgerIncrementalReads(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	path := filepath.Join(t.TempDir(), "ledger.json")
	led, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.SetBudget("ds-a", dp.Budget{Eps: 10}); err != nil {
		t.Fatal(err)
	}
	other := must(Open(path))
	for i := 0; i < 20; i++ {
		if err := led.SpendToken("ds-a", testReceipt(0.1, 0), fmt.Sprintf("job-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := other.Spend("ds-a", testReceipt(0.1, 0)); err != nil {
			t.Fatal(err)
		}
		led.Remaining("ds-a")
	}
	if reads := inj.Ops(faultfs.OpRead, "ledger.json"); reads != 0 {
		t.Fatalf("%d whole-file reads, want 0", reads)
	}
	if rem := led.Remaining("ds-a"); math.Abs(rem.Eps-6) > 1e-9 {
		t.Fatalf("remaining = %v, want 6", rem)
	}
	// Replace the file with a fresh ledger of a different budget: the
	// header changes, so the handle re-reads it.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := must(Open(path)).SetBudget("ds-a", dp.Budget{Eps: 3}); err != nil {
		t.Fatal(err)
	}
	if rem := led.Remaining("ds-a"); rem.Eps != 3 {
		t.Fatalf("remaining after the file was replaced = %v, want 3", rem)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
