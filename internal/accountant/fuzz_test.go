package accountant

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/dp"
)

// FuzzLedgerDecode holds the log decoder to its contract on arbitrary
// bytes: it never panics, a non-nil error is always ErrCorrupt, the
// valid size stays within the input, and the declared valid prefix
// re-decodes to the same size with no error — what a reader relies on
// when it ignores a torn tail.
func FuzzLedgerDecode(f *testing.F) {
	dir, err := os.MkdirTemp("", "ledger-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ledger.json")
	led, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := led.SetBudget("ds-a", dp.Budget{Eps: 1, Delta: 0.01}); err != nil {
		f.Fatal(err)
	}
	if err := led.SpendToken("ds-a", testReceipt(0.2, 0.001), "job-1"); err != nil {
		f.Fatal(err)
	}
	if err := led.Reset("ds-a"); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:headerLen])    // header only
	f.Add(valid[:headerLen-2])  // torn header
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+4] ^= 0x01 // interior bit flip
	f.Add(flipped)
	f.Add([]byte(`{"version":1,"datasets":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeLog(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if st.size < headerLen || st.size > int64(len(data)) {
			t.Fatalf("valid size %d outside [%d, %d]", st.size, headerLen, len(data))
		}
		again, err := decodeLog(data[:st.size])
		if err != nil || again.size != st.size || len(again.accts) != len(st.accts) {
			t.Fatalf("valid prefix re-decodes to size %d, %d accounts, err %v; want %d, %d", again.size, len(again.accts), err, st.size, len(st.accts))
		}
	})
}
