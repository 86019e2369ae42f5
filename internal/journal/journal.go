// Package journal is the durable write-ahead log of job state
// transitions that makes the serving tier crash-safe. The privacy
// ledger (internal/accountant) made budget persistent and
// irreplaceable; the jobs that spend it, however, lived in one
// process's memory — a crash between the admission-time debit and the
// release-cache write lost both the fit and the (ε, δ) it charged,
// the worst failure mode a DP service can have, since budget cannot
// be refunded once noise may have been drawn.
//
// The journal closes that window. Every job append-logs its
// transitions — admitted (with the full request payload, dataset id,
// planned receipt and release key), debited, running, and a terminal
// done/failed/cancelled — so a restarted server can Replay the log,
// Reduce it to per-job state, and resume any admitted-but-unfinished
// job: the persisted planned receipt plus the ledger's idempotent
// spend token prove the charge, the recorded seed re-executes the fit
// deterministically, and the paid-for release lands in the release
// cache exactly once. The serving invariant the journal exists to
// keep: every debit is eventually matched by a served release or an
// explicit journaled failure — never silence.
//
// On-disk format ("DPKJ"): a 5-byte header (magic + version) followed
// by the frames of internal/frame, the module's one durable record
// format (shared with the privacy ledger): each a uvarint payload
// length, the record's compact JSON, and the first 8 bytes of the
// payload's SHA-256. Appends are single writes; state-bearing
// transitions (admission, terminal) are fsynced, intermediate ones
// ride the next sync. Recovery distinguishes a torn tail — an incomplete final
// frame, the signature of a crash mid-append, silently truncated away
// — from interior corruption — a checksum or structural failure with
// complete bytes on both sides, which is damage, reported as a typed
// ErrCorrupt and never repaired silently. Compaction rewrites the
// retained suffix through the tmp + fsync + atomic-rename discipline
// every other store in the module uses, and a sidecar flock
// (internal/fslock) makes the journal single-owner across processes.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/faultfs"
	"dpkron/internal/frame"
	"dpkron/internal/fslock"
	"dpkron/internal/release"
)

// Typed errors. ErrCorrupt marks interior damage Open refuses to
// repair silently; ErrLocked marks a journal owned by another live
// process.
var (
	ErrCorrupt = errors.New("journal: corrupt record")
	ErrLocked  = errors.New("journal: already locked by another process")
)

// States a job transitions through. Admitted carries the payload; a
// terminal state (done, failed, cancelled) closes the job.
const (
	StateAdmitted  = "admitted"
	StateDebited   = "debited"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether state closes a job.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Record is one journaled transition. Admission records carry the
// replay payload (the request exactly as submitted, the ledger
// dataset, the planned receipt that proves the eventual charge, and
// the release-cache key); terminal records carry the outcome.
type Record struct {
	// Seq is the record's position in the log, 1-based and strictly
	// increasing within one journal file.
	Seq uint64 `json:"seq"`
	// Job is the job id the transition belongs to.
	Job string `json:"job"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Time is the wall-clock time the record was appended.
	Time time.Time `json:"time"`

	// Kind is the job kind ("fit/private", "generate", ...); admission
	// records only.
	Kind string `json:"kind,omitempty"`
	// Request is the submitted request body (server FitRequest or
	// GenerateRequest JSON); admission records only.
	Request json.RawMessage `json:"request,omitempty"`
	// Dataset is the ledger account the job charges; admission records
	// of ledger-enforced private fits only.
	Dataset string `json:"dataset,omitempty"`
	// Planned is the data-independent receipt the admission debit
	// charged (core.PlannedReceipt); proves the charge on replay.
	Planned *accountant.Receipt `json:"planned,omitempty"`
	// Token is the idempotent ledger spend token the debit was (or
	// will be) issued under. Unique per admission — job ids restart
	// with the process, so the id alone could collide with a receipt
	// from an earlier instance and silently skip a legitimate debit.
	Token string `json:"token,omitempty"`
	// ReleaseKey is the release-cache key of the question, so a
	// resumed fit lands its release under the identical fingerprint.
	ReleaseKey *release.Key `json:"release_key,omitempty"`
	// RequestID and TraceID tie the admission to the HTTP request that
	// caused it (the X-Request-ID and W3C trace id the middleware
	// assigned), so a crash-resumed job's trace links back to the
	// originating request; admission records only.
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`

	// Error is the failure or cancellation reason; terminal records.
	Error string `json:"error,omitempty"`
	// Result is the job's result payload, retained when it fits
	// MaxResultBytes so GET /v1/jobs/{id} answers across restarts;
	// terminal done records.
	Result json.RawMessage `json:"result,omitempty"`
}

// MaxResultBytes bounds the result payload a terminal record retains:
// fit results are ~1 KiB and always kept; a multi-megabyte generate
// edge list is elided (the job replays as done, result dropped).
const MaxResultBytes = 1 << 20

// maxRecordBytes bounds a single frame on decode, so a corrupt length
// varint cannot force a multi-gigabyte allocation. Admission records
// embed the request body, which the server caps at 64 MiB; one frame
// beyond 80 MiB is corruption, not data.
const maxRecordBytes = 80 << 20

var magic = []byte{'D', 'P', 'K', 'J', 1}

// Journal is an open, exclusively owned job journal. All methods are
// safe for concurrent use.
type Journal struct {
	path   string
	fsys   faultfs.FS
	unlock func()
	// met carries the telemetry collectors installed by Instrument;
	// the zero value no-ops.
	met journalMetrics

	mu      sync.Mutex
	f       faultfs.File
	seq     uint64
	size    int64 // committed length of the file
	records []Record
	closed  bool
}

// Open loads (or creates) the journal at path, recovering a torn tail
// left by a crash mid-append, and takes exclusive cross-process
// ownership of it via a sidecar flock held until Close. Interior
// corruption — a damaged record with complete records after it — is
// ErrCorrupt: the journal holds budget-bearing history, so damage is
// surfaced to the operator, never silently dropped.
func Open(path string) (*Journal, error) { return OpenFS(faultfs.OS, path) }

// OpenFS is Open against an explicit filesystem (fault-injection
// tests).
func OpenFS(fsys faultfs.FS, path string) (*Journal, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	unlock, err := fslock.LockNB(path + ".lock")
	if err != nil {
		if errors.Is(err, fslock.ErrLocked) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, path)
		}
		return nil, fmt.Errorf("journal: locking %s: %w", path, err)
	}
	j := &Journal{path: path, fsys: fsys, unlock: unlock}
	if err := j.load(); err != nil {
		unlock()
		return nil, err
	}
	return j, nil
}

// load reads and validates the journal, truncating a torn tail, and
// leaves the file open for appends.
func (j *Journal) load() error {
	data, err := j.fsys.ReadFile(j.path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: reading %s: %w", j.path, err)
	}
	fresh := os.IsNotExist(err) || len(data) == 0
	var valid int64
	if fresh {
		j.records, j.seq = nil, 0
	} else {
		records, validLen, err := Decode(data)
		if err != nil {
			return err
		}
		j.records = records
		if n := len(records); n > 0 {
			j.seq = records[n-1].Seq
		}
		valid = validLen
		if valid < int64(len(data)) {
			// Torn tail: an incomplete final frame is exactly what a crash
			// mid-append leaves. Drop it so the next append starts on a
			// frame boundary.
			if err := j.fsys.Truncate(j.path, valid); err != nil {
				return fmt.Errorf("journal: recovering torn tail of %s: %w", j.path, err)
			}
		}
		if valid == 0 {
			// The crash tore the header itself: nothing valid survives,
			// so rebuild from scratch, magic included.
			fresh = true
		}
	}
	f, err := j.fsys.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening %s for append: %w", j.path, err)
	}
	if fresh {
		if _, err := f.Write(magic); err != nil {
			f.Close()
			return fmt.Errorf("journal: writing header of %s: %w", j.path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: syncing header of %s: %w", j.path, err)
		}
		valid = int64(len(magic))
	}
	j.f = f
	j.size = valid
	return nil
}

// Decode parses journal bytes into records plus the byte length of the
// valid prefix. A torn tail (an incomplete final frame) is not an
// error: the records before it are returned and validLen stops at the
// last complete frame, so callers can truncate. Interior corruption —
// a bad checksum, malformed JSON, a non-increasing sequence number, or
// an oversized frame with complete data beyond it — is ErrCorrupt.
// Decode never panics on hostile input (fuzzed).
func Decode(data []byte) (records []Record, validLen int64, err error) {
	if len(data) < len(magic) {
		if isPrefix(data, magic) {
			return nil, 0, nil // torn header
		}
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if string(data[:len(magic)]) != string(magic) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var lastSeq uint64
	end, err := frame.Decode(data[len(magic):], int64(len(magic)), maxRecordBytes, ErrCorrupt, func(off int64, payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Seq <= lastSeq {
			return fmt.Errorf("%w: sequence %d at offset %d does not advance past %d", ErrCorrupt, rec.Seq, off, lastSeq)
		}
		lastSeq = rec.Seq
		records = append(records, rec)
		return nil
	})
	return records, end, err
}

func isPrefix(data, of []byte) bool {
	if len(data) > len(of) {
		return false
	}
	return string(data) == string(of[:len(data)])
}

// Path returns the journal file location.
func (j *Journal) Path() string { return j.path }

// Records returns a copy of every record currently in the journal, in
// append order.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// Append logs one transition, assigning Seq and Time. With sync, the
// record is fsynced before Append returns — required for records
// whose loss would break the debit invariant (admission before the
// ledger debit, terminal states before history eviction); transitions
// recoverable by re-execution (debited, running) may ride a later
// sync. A failed append leaves at worst a torn tail, which the next
// Open truncates; the in-memory journal never records a transition
// the file might not hold.
func (j *Journal) Append(rec Record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	rec.Seq = j.seq + 1
	rec.Time = j.fsys.Now().UTC().Truncate(time.Microsecond)
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	buf := frame.Append(nil, payload)
	if _, err := j.f.Write(buf); err != nil {
		// The write may have torn: reopen at the last committed size so
		// this process's future appends do not build on a torn tail the
		// way a crashed process's next Open would have to recover.
		j.reopenLocked()
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	if sync {
		start := time.Now()
		if err := j.f.Sync(); err != nil {
			j.reopenLocked()
			return fmt.Errorf("journal: syncing %s: %w", j.path, err)
		}
		j.met.observeFsync(start)
	}
	j.seq = rec.Seq
	j.size += int64(len(buf))
	j.records = append(j.records, rec)
	j.met.appends.With(rec.State).Inc()
	return nil
}

// Sync flushes any unsynced appends.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", j.path, err)
	}
	return nil
}

// reopenLocked truncates the file back to the last committed frame
// boundary and reopens it for append, after a failed write. Best
// effort: if recovery itself fails the journal stays pointed at the
// old handle and the next Open re-runs torn-tail recovery from disk.
func (j *Journal) reopenLocked() {
	j.f.Close()
	_ = j.fsys.Truncate(j.path, j.size)
	if f, err := j.fsys.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644); err == nil {
		j.f = f
	}
}

// Compact atomically rewrites the journal keeping only records whose
// job id passes keep, renumbering sequences. Used at startup to drop
// jobs beyond the history bound: the journal is the source of truth
// for -max-history, so eviction happens here, not only in memory.
func (j *Journal) Compact(keep func(job string) bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	var kept []Record
	data := make([]byte, 0, len(magic))
	data = append(data, magic...)
	var seq uint64
	for _, rec := range j.records {
		if !keep(rec.Job) {
			continue
		}
		seq++
		rec.Seq = seq
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: encoding record: %w", err)
		}
		data = frame.Append(data, payload)
		kept = append(kept, rec)
	}
	// tmp + fsync + atomic rename: a crash mid-compaction leaves either
	// the old journal or the new, never a mix.
	if err := faultfs.WriteAtomic(j.fsys, j.path, "journal", data); err != nil {
		return fmt.Errorf("journal: compacting %s: %w", j.path, err)
	}
	j.f.Close()
	nf, err := j.fsys.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		j.closed = true
		return fmt.Errorf("journal: reopening compacted %s: %w", j.path, err)
	}
	j.f = nf
	j.records = kept
	j.seq = seq
	j.size = int64(len(data))
	return nil
}

// Close syncs, releases the cross-process lock, and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.unlock()
	if syncErr != nil {
		return fmt.Errorf("journal: syncing %s on close: %w", j.path, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: closing %s: %w", j.path, closeErr)
	}
	return nil
}

// JobState is the folded state of one job after Replay: its latest
// admission payload plus the furthest transition reached.
type JobState struct {
	Job   string
	Kind  string
	State string
	// Admitted is the admission record (payload, dataset, planned
	// receipt, release key); nil when the journal holds transitions
	// for a job whose admission was compacted away or lost.
	Admitted *Record
	// Debited reports whether a debited transition was journaled: the
	// ledger charge provably landed and must not be repeated.
	Debited bool
	// Error and Result are the terminal outcome, when terminal.
	Error  string
	Result json.RawMessage
}

// Terminal reports whether the job reached a terminal state.
func (s *JobState) Terminal() bool { return Terminal(s.State) }

// Reduce folds records into per-job states, in order of first
// appearance. The fold is tolerant by design — duplicated transitions
// are idempotent, a transition arriving after a terminal state is
// ignored (a DELETE confirmed cancelled to a client must not be
// overwritten by a late done), and unknown states are skipped — so a
// journal written by a newer version, or bearing the duplicates a
// crash-retry can produce, still reduces to usable state instead of
// failing recovery.
func Reduce(records []Record) []*JobState {
	index := map[string]*JobState{}
	var order []*JobState
	for i := range records {
		rec := &records[i]
		s := index[rec.Job]
		if s == nil {
			s = &JobState{Job: rec.Job}
			index[rec.Job] = s
			order = append(order, s)
		}
		switch rec.State {
		case StateAdmitted:
			if s.Admitted == nil {
				s.Admitted = rec
				s.Kind = rec.Kind
			}
			if s.State == "" {
				s.State = StateAdmitted
			}
		case StateDebited:
			s.Debited = true
			if !s.Terminal() {
				s.State = StateDebited
			}
		case StateRunning:
			if !s.Terminal() {
				s.State = StateRunning
			}
		case StateDone, StateFailed, StateCancelled:
			if !s.Terminal() {
				s.State = rec.State
				s.Error = rec.Error
				s.Result = rec.Result
			}
		}
	}
	return order
}
