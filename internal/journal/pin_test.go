package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpkron/internal/core"
	"dpkron/internal/faultfs"
)

// TestOnDiskPinJournal: testdata/pin.journal was written by the binary
// whose journal header is "DPKJ" version 1 and ends in a torn frame. It
// must open with the eight whole records it holds, reduce to their job
// states, and accept one more append that a reopen sees.
func TestOnDiskPinJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pin.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := j.Records()
	wantStates := []string{StateAdmitted, StateDebited, StateRunning, StateDone, StateAdmitted, StateFailed, StateAdmitted, StateDebited}
	if len(recs) != len(wantStates) {
		t.Fatalf("%d records, want %d", len(recs), len(wantStates))
	}
	start := time.Date(2026, 10, 19, 5, 0, 0, 0, time.UTC)
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.State != wantStates[i] || !rec.Time.Equal(start.Add(time.Duration(i+1)*time.Second)) {
			t.Fatalf("record %d = seq %d %s at %v", i, rec.Seq, rec.State, rec.Time)
		}
	}
	planned := core.PlannedReceipt(1.0, 1e-6)
	adm := recs[6]
	if adm.Job != "job-3" || adm.Token != "tok-3" || adm.Dataset != "ds-0011223344556677" ||
		adm.Planned == nil || adm.Planned.Total != planned.Total || adm.ReleaseKey == nil ||
		adm.RequestID != "req-job-3" || adm.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("admission of job-3 = %+v", adm)
	}
	var req map[string]any
	if err := json.Unmarshal(adm.Request, &req); err != nil || req["seed"] != 42.0 {
		t.Fatalf("admission request %s (%v)", adm.Request, err)
	}
	states := Reduce(recs)
	if len(states) != 3 {
		t.Fatalf("Reduce: %d jobs, want 3", len(states))
	}
	if s := states[0]; s.Job != "job-1" || s.State != StateDone || !s.Debited || string(s.Result) != `{"theta":[[0.9,0.6],[0.6,0.2]]}` {
		t.Fatalf("job-1 reduced to %+v", s)
	}
	if s := states[1]; s.Job != "job-2" || s.State != StateFailed || s.Error != "boom" || s.Debited {
		t.Fatalf("job-2 reduced to %+v", s)
	}
	if s := states[2]; s.Job != "job-3" || s.State != StateDebited || !s.Debited || s.Admitted == nil {
		t.Fatalf("job-3 reduced to %+v", s)
	}
	if err := j.Append(Record{Job: "job-3", State: StateRunning}, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs = j2.Records()
	if len(recs) != 9 || recs[8].Seq != 9 || recs[8].State != StateRunning {
		t.Fatalf("after one append: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
	if s := Reduce(recs)[2]; s.State != StateRunning {
		t.Fatalf("job-3 after the append: %+v", s)
	}
}

// TestIOPinJournal pins the file operations of the journal appends on
// the fit path: a synced append is one write and one fsync, an async
// one a single write. A change may lower these counts, never raise
// them.
func TestIOPinJournal(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	j, err := OpenFS(inj, filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, c := range []struct {
		sync bool
		want map[string]int
	}{
		{true, map[string]int{"write": 1, "sync": 1}},
		{false, map[string]int{"write": 1}},
		{true, map[string]int{"write": 1, "sync": 1}},
	} {
		n := len(inj.Trace())
		if err := j.Append(admissionRecord("job-1"), c.sync); err != nil {
			t.Fatal(err)
		}
		for _, op := range inj.Trace()[n:] {
			kind, _, _ := strings.Cut(op, " ")
			c.want[kind]--
			if c.want[kind] < 0 {
				t.Errorf("append (sync %v): more %s ops than the pinned count (%v)", c.sync, kind, inj.Trace()[n:])
			}
		}
	}
}
