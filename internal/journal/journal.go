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
// On-disk format ("DPKJ", version 2): a frame.Log, which owns the file
// discipline (header and file id, torn-tail repair, durable appends,
// atomic rewrites); this package keeps the record schema, the fold and
// the lock policy. State-bearing transitions (admission, terminal) are
// fsynced, intermediate ones ride the next sync. A sidecar flock
// (internal/fslock) held from Open to Close makes the journal
// single-owner across processes. A version 1 journal (a 5-byte header
// without a file id) is rewritten as version 2 once, at Open, under
// that lock; older binaries cannot read the result.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// format is the journal's log file, headed by magic; legacyMagic heads
// a version 1 journal, whose header has no file id.
var format = frame.Format{Magic: magic, What: "journal", MaxLen: maxRecordBytes, Corrupt: ErrCorrupt, Convert: convertV1}

const magic, legacyMagic = "DPKJ\x02", "DPKJ\x01"

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
	log     *frame.Log
	seq     uint64
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
	j := &Journal{path: path, fsys: fsys, unlock: unlock, log: frame.NewLog(fsys, path, format, true)}
	j.log.OnSync = func(d time.Duration) { j.met.observeFsync(d) }
	err = j.log.Read(func() { j.records, j.seq = nil, 0 }, fold(&j.records, &j.seq))
	if err == nil && len(j.records) == 0 {
		err = j.log.Rewrite(nil) // an empty journal is a bare header
	}
	if err != nil {
		j.log.Close()
		unlock()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return j, nil
}

// fold returns the frame callback that decodes a record onto *records,
// checking that its sequence number advances past *seq.
func fold(records *[]Record, seq *uint64) func(off int64, payload []byte) error {
	return func(off int64, payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Seq <= *seq {
			return fmt.Errorf("%w: sequence %d at offset %d does not advance past %d", ErrCorrupt, rec.Seq, off, *seq)
		}
		*seq = rec.Seq
		*records = append(*records, rec)
		return nil
	}
}

// Decode parses journal bytes of either header version into records
// plus the byte length of the valid prefix. A torn header is an empty
// journal, and a torn tail (an incomplete final frame) is not an error:
// the records before it are returned and validLen stops at the last
// complete frame. Interior corruption — a bad checksum, malformed JSON,
// a non-increasing sequence number, or an oversized frame with complete
// data beyond it — is ErrCorrupt. Decode never panics on hostile input
// (fuzzed).
func Decode(data []byte) (records []Record, validLen int64, err error) {
	fn := fold(&records, new(uint64))
	if validLen, err = format.Decode(data, fn); err != nil && validLen == 0 {
		validLen, err = decodeV1(data, fn) // not a version 2 header
	}
	return records, validLen, err
}

// decodeV1 walks the frames of a version 1 journal. A header cut short,
// of either version, is an empty journal: unlike the ledger, the
// journal reads one as version 1 did, whose header a plain write wrote.
func decodeV1(data []byte, fn func(off int64, payload []byte) error) (int64, error) {
	if n := min(len(data), len(magic)); len(data) < frame.HeaderLen && string(data[:n]) == magic[:n] {
		return 0, nil
	}
	if !bytes.HasPrefix(data, []byte(legacyMagic)) {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return frame.Decode(data[len(legacyMagic):], int64(len(legacyMagic)), maxRecordBytes, ErrCorrupt, fn)
}

// convertV1 returns the frames of a version 1 journal's records for
// Open to rewrite as version 2; a torn tail is dropped.
func convertV1(data []byte) ([]byte, error) {
	end, err := decodeV1(data, fold(new([]Record), new(uint64)))
	if err != nil || end == 0 {
		return nil, err
	}
	return data[len(legacyMagic):end], nil
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
// sync. A failed append is cut back off the file (frame.Log.Append);
// the in-memory journal never records a transition the file might not
// hold.
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
	if err := j.log.Append(payload, sync); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.seq = rec.Seq
	j.records = append(j.records, rec)
	j.met.appends.With(rec.State).Inc()
	return nil
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
	var frames []byte
	for _, rec := range j.records {
		if !keep(rec.Job) {
			continue
		}
		rec.Seq = uint64(len(kept) + 1)
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: encoding record: %w", err)
		}
		kept, frames = append(kept, rec), frame.Append(frames, payload)
	}
	// An atomic rewrite: a crash mid-compaction leaves either the old
	// journal or the new, never a mix.
	if err := j.log.Rewrite(frames); err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	j.records, j.seq = kept, uint64(len(kept))
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
	err := j.log.Close()
	j.unlock()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
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
