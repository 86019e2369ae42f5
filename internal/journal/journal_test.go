package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dpkron/internal/core"
	"dpkron/internal/faultfs"
	"dpkron/internal/frame"
	"dpkron/internal/obs"
	"dpkron/internal/release"
)

func admissionRecord(job string) Record {
	planned := core.PlannedReceipt(1.0, 1e-6)
	key := release.KeyFor("ds-0011223344556677", 1.0, 1e-6, 10, 42, planned)
	return Record{
		Job:        job,
		State:      StateAdmitted,
		Kind:       "fit/private",
		Request:    json.RawMessage(`{"method":"private","eps":1,"delta":1e-6,"k":10,"seed":42,"dataset_id":"ds-0011223344556677"}`),
		Dataset:    "ds-0011223344556677",
		Planned:    &planned,
		ReleaseKey: &key,
	}
}

// appendLifecycle journals a full admitted→…→done lifecycle for job.
func appendLifecycle(t *testing.T, j *Journal, job string) {
	t.Helper()
	for _, rec := range []Record{
		admissionRecord(job),
		{Job: job, State: StateDebited},
		{Job: job, State: StateRunning},
		{Job: job, State: StateDone, Result: json.RawMessage(`{"theta":[[0.9,0.6],[0.6,0.2]]}`)},
	} {
		sync := rec.State == StateAdmitted || Terminal(rec.State)
		if err := j.Append(rec, sync); err != nil {
			t.Fatalf("Append(%s/%s): %v", job, rec.State, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, j, "job-1")
	appendLifecycle(t, j, "job-2")
	before := j.Records()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	after := j2.Records()
	if len(after) != len(before) {
		t.Fatalf("reopen lost records: %d != %d", len(after), len(before))
	}
	for i := range before {
		b, _ := json.Marshal(before[i])
		a, _ := json.Marshal(after[i])
		if string(a) != string(b) {
			t.Fatalf("record %d changed across reopen:\n  before %s\n  after  %s", i, b, a)
		}
	}
	states := Reduce(after)
	if len(states) != 2 {
		t.Fatalf("Reduce: %d jobs, want 2", len(states))
	}
	for _, s := range states {
		if s.State != StateDone || !s.Debited || s.Admitted == nil {
			t.Fatalf("job %s reduced to %+v", s.Job, s)
		}
		if s.Admitted.Planned == nil || s.Admitted.ReleaseKey == nil {
			t.Fatalf("job %s admission lost its payload", s.Job)
		}
	}
}

// TestTornTailRecoveryEveryPoint truncates the journal at every byte
// length and re-opens: each prefix must recover to some record prefix
// of the original — never an error, never a fabricated record — and
// leave a journal that accepts appends again.
func TestTornTailRecoveryEveryPoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, j, "job-1")
	full := j.Records()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		torn := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, err := Open(torn)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := tj.Records()
		if len(got) > len(full) {
			t.Fatalf("cut=%d: recovered %d records from a prefix of %d", cut, len(got), len(full))
		}
		for i := range got {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(full[i])
			if string(g) != string(w) {
				t.Fatalf("cut=%d: record %d differs: %s != %s", cut, i, g, w)
			}
		}
		// The recovered journal must be writable: the crashed append is
		// gone and the next one starts cleanly on a frame boundary.
		if err := tj.Append(Record{Job: "job-9", State: StateAdmitted, Kind: "fit/private"}, true); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := tj.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		rj, err := Open(torn)
		if err != nil {
			t.Fatalf("cut=%d: second reopen: %v", cut, err)
		}
		if n := len(rj.Records()); n != len(got)+1 {
			t.Fatalf("cut=%d: post-recovery append lost: %d records, want %d", cut, n, len(got)+1)
		}
		rj.Close()
		os.Remove(torn)
		os.Remove(torn + ".lock")
	}
}

// TestInteriorCorruption flips one byte inside a non-final record:
// complete data follows the damage, so this is corruption, not a torn
// tail, and Open must refuse with ErrCorrupt rather than silently
// dropping budget-bearing history.
func TestInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, j, "job-1")
	appendLifecycle(t, j, "job-2")
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte early in the first record's payload (well before the
	// final frame).
	data[frame.HeaderLen+4] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on interior damage: %v, want ErrCorrupt", err)
	}
}

func TestOpenLockedByLiveOwner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// flock is per-process on unix, so a same-process double-open cannot
	// observe contention portably; what must hold everywhere is that the
	// lock is released on Close and a reopen succeeds (covered above) —
	// here we at least exercise the ErrLocked mapping path compiling. On
	// unix the cross-process case is proven in internal/fslock.
	_ = ErrLocked
}

func TestReduceTolerance(t *testing.T) {
	adm := admissionRecord("job-1")
	recs := []Record{
		adm,
		adm, // duplicated admission: idempotent
		{Job: "job-1", State: StateDebited},
		{Job: "job-1", State: StateDebited}, // duplicated transition
		{Job: "job-1", State: StateCancelled, Error: "cancelled by client"},
		{Job: "job-1", State: StateDone, Result: json.RawMessage(`{}`)}, // after terminal: ignored
		{Job: "job-1", State: "warp-speed"},                             // unknown state: skipped
		{Job: "job-2", State: StateRunning},                             // no admission record
	}
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	states := Reduce(recs)
	if len(states) != 2 {
		t.Fatalf("Reduce: %d jobs, want 2", len(states))
	}
	s1 := states[0]
	if s1.Job != "job-1" || s1.State != StateCancelled || s1.Error != "cancelled by client" {
		t.Fatalf("job-1 reduced to %+v", s1)
	}
	if !s1.Debited || s1.Admitted == nil {
		t.Fatalf("job-1 lost debit/admission: %+v", s1)
	}
	if s1.Result != nil {
		t.Fatalf("job-1 took a result after terminal cancellation")
	}
	s2 := states[1]
	if s2.Job != "job-2" || s2.State != StateRunning || s2.Admitted != nil {
		t.Fatalf("job-2 reduced to %+v", s2)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"job-1", "job-2", "job-3"} {
		appendLifecycle(t, j, job)
	}
	if err := j.Compact(func(job string) bool { return job != "job-1" }); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction continue the renumbered sequence.
	if err := j.Append(Record{Job: "job-4", State: StateAdmitted, Kind: "fit/private"}, true); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer j2.Close()
	states := Reduce(j2.Records())
	var jobs []string
	for _, s := range states {
		jobs = append(jobs, s.Job)
	}
	want := []string{"job-2", "job-3", "job-4"}
	if len(jobs) != len(want) {
		t.Fatalf("jobs after compact: %v, want %v", jobs, want)
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("jobs after compact: %v, want %v", jobs, want)
		}
	}
}

// TestAppendShortWriteRecovery injects a torn write (only half the
// frame reaches the file) and asserts the journal's self-recovery: the
// failed append reports its error, the torn bytes are truncated away,
// and both the next in-process append and a full reopen see a clean
// log with no trace of the torn frame.
func TestAppendShortWriteRecovery(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, j, "job-1")

	inj.Fail(faultfs.Fault{Op: faultfs.OpWrite, Path: "jobs.journal", Short: 7, Err: faultfs.ErrInjected})
	if err := j.Append(admissionRecord("job-2"), true); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn append: %v, want ErrInjected", err)
	}

	// The journal recovered in-process: the next append lands cleanly.
	if err := j.Append(admissionRecord("job-3"), true); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
	states := Reduce(j.Records())
	if len(states) != 2 || states[0].Job != "job-1" || states[1].Job != "job-3" {
		t.Fatalf("in-memory state after recovery: %+v", states)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer j2.Close()
	states = Reduce(j2.Records())
	if len(states) != 2 || states[0].Job != "job-1" || states[1].Job != "job-3" {
		t.Fatalf("on-disk state after recovery: %+v", states)
	}
}

// TestAppendSyncFault: a failed fsync on a sync-required record must
// surface as an error (the caller cannot claim durability), and the
// journal must stay usable.
func TestAppendSyncFault(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	inj.Fail(faultfs.Fault{Op: faultfs.OpSync, Path: "jobs.journal", Err: faultfs.ErrInjected})
	if err := j.Append(admissionRecord("job-1"), true); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append with failing fsync: %v, want ErrInjected", err)
	}
	if err := j.Append(admissionRecord("job-2"), true); err != nil {
		t.Fatalf("append after fsync fault: %v", err)
	}
}

// TestFsyncMetricAndCloseFault: dpkron_journal_fsync_seconds observes
// each successful fsync of a synced append, and nothing else; a failed
// close of the journal file is reported by Close.
func TestFsyncMetricAndCloseFault(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	j, err := OpenFS(inj, filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	j.Instrument(reg)
	for _, sync := range []bool{true, false, true} {
		if err := j.Append(admissionRecord("job-1"), sync); err != nil {
			t.Fatal(err)
		}
	}
	inj.Fail(faultfs.Fault{Op: faultfs.OpSync, Path: "jobs.journal"})
	if err := j.Append(admissionRecord("job-2"), true); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append with failing fsync: %v, want ErrInjected", err)
	}
	if n := reg.Histogram("dpkron_journal_fsync_seconds", "", obs.FsyncBuckets).Count(); n != 2 {
		t.Fatalf("fsync histogram holds %d observations, want 2", n)
	}
	inj.Fail(faultfs.Fault{Op: faultfs.OpClose, Path: "jobs.journal"})
	if err := j.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("close with failing file close: %v, want ErrInjected", err)
	}
}

// TestCompactRenameFault: a failed rename mid-compaction must leave
// the original journal intact — crash-consistent compaction means old
// or new, never a mix and never loss.
func TestCompactRenameFault(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, j, "job-1")
	appendLifecycle(t, j, "job-2")
	inj.Fail(faultfs.Fault{Op: faultfs.OpRename, Path: "jobs.journal", Err: faultfs.ErrInjected})
	if err := j.Compact(func(job string) bool { return job == "job-2" }); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("compact with failing rename: %v, want ErrInjected", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after failed compact: %v", err)
	}
	defer j2.Close()
	states := Reduce(j2.Records())
	if len(states) != 2 {
		t.Fatalf("failed compaction lost records: %d jobs, want 2", len(states))
	}
}

func TestAppendTimeFromInjectedClock(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS)
	pinned := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	inj.SetNow(func() time.Time { return pinned })
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Job: "job-1", State: StateAdmitted}, true); err != nil {
		t.Fatal(err)
	}
	if got := j.Records()[0].Time; !got.Equal(pinned) {
		t.Fatalf("record time %v, want pinned %v", got, pinned)
	}
}
