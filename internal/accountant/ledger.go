package accountant

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"dpkron/internal/dp"
	"dpkron/internal/faultfs"
	"dpkron/internal/frame"
	"dpkron/internal/fslock"
	"dpkron/internal/graph"
)

// DatasetID returns a stable content-addressed identifier for g:
// "ds-" plus the first 16 hex digits of the SHA-256 of the node count
// and canonical (sorted-CSR) edge list. Byte-identical graphs map to
// the same id in every process, so budget spent on a dataset accrues
// across fits, restarts, and machines sharing a ledger.
func DatasetID(g *graph.Graph) string {
	h := sha256.New()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(g.NumNodes()))
	h.Write(buf[:8])
	g.ForEachEdge(func(u, v int) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(u))
		binary.LittleEndian.PutUint64(buf[8:], uint64(v))
		h.Write(buf[:])
	})
	return fmt.Sprintf("ds-%x", h.Sum(nil)[:8])
}

// Account is one dataset's ledger entry: the configured budget, the
// composed spend so far, and the receipts that produced it.
type Account struct {
	Budget   dp.Budget `json:"budget"`
	Spent    dp.Budget `json:"spent"`
	Receipts []Receipt `json:"receipts,omitempty"`
}

// Remaining returns the budget left on the account, clamped at zero.
func (a Account) Remaining() dp.Budget { return remaining(a.Budget, a.Spent) }

// ErrCorrupt marks a ledger file the ledger refuses to act on: a
// damaged frame with complete bytes after it, an undecodable or
// unknown record, or a file that is neither a ledger log nor a v1 JSON
// ledger. Budget-bearing history is never repaired silently.
var ErrCorrupt = errors.New("accountant: corrupt ledger")

// The on-disk log ("DPKL"): a header of magic, version and an 8-byte
// random file id, then one internal/frame frame per record. The id
// changes whenever the file is rewritten (created or converted), so a
// handle that finds a different header re-reads the file from the
// start instead of decoding from a stale offset.
var logMagic = []byte{'D', 'P', 'K', 'L', 1}

const (
	headerLen = 5 + 8
	// maxRecordBytes bounds one record on decode, so a corrupt length
	// cannot force a huge allocation; a receipt is well under 1 KiB.
	maxRecordBytes = 1 << 20
)

// Record operations.
const (
	opBudget = "budget" // set Budget (and, when converted from v1, Spent)
	opSpend  = "spend"  // debit: Receipt, and the account's Spent after it
	opReset  = "reset"  // zero the spend, drop the receipts and their tokens
)

// record is one log entry.
type record struct {
	Op      string     `json:"op"`
	Dataset string     `json:"dataset"`
	Budget  *dp.Budget `json:"budget,omitempty"`
	Spent   *dp.Budget `json:"spent,omitempty"`
	Receipt *Receipt   `json:"receipt,omitempty"`
}

// account is a dataset's state as the ledger holds it in memory: the
// totals and the spend tokens, not the receipts.
type account struct {
	budget, spent dp.Budget
	tokens        map[string]struct{}
}

// state is the fold of a log: the header it was read under, the offset
// just past its last whole frame, and the accounts.
type state struct {
	header []byte // nil until the file exists
	size   int64
	accts  map[string]*account
}

func newState() *state { return &state{accts: map[string]*account{}} }

// decodeRecord parses and validates one record's payload.
func decodeRecord(off int64, payload []byte) (record, error) {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
	}
	ok := false
	switch rec.Op {
	case opBudget:
		ok = rec.Budget != nil
	case opSpend:
		ok = rec.Spent != nil && rec.Receipt != nil
	case opReset:
		ok = true
	}
	if !ok {
		return rec, fmt.Errorf("%w: invalid %q record at offset %d", ErrCorrupt, rec.Op, off)
	}
	return rec, nil
}

// walk decodes the frames of data, which starts at file offset base,
// calling fn on each record; it returns the offset past the last whole
// frame.
func walk(data []byte, base int64, fn func(record)) (int64, error) {
	return frame.Decode(data, base, maxRecordBytes, ErrCorrupt, func(off int64, payload []byte) error {
		rec, err := decodeRecord(off, payload)
		if err == nil {
			fn(rec)
		}
		return err
	})
}

// apply folds one record into the accounts.
func (s *state) apply(rec record) {
	a := s.accts[rec.Dataset]
	if a == nil {
		a = &account{}
		s.accts[rec.Dataset] = a
	}
	switch rec.Op {
	case opBudget:
		a.budget = *rec.Budget
		if rec.Spent != nil {
			a.spent = *rec.Spent
		}
	case opSpend:
		a.spent = *rec.Spent
		if tok := rec.Receipt.Token; tok != "" {
			if a.tokens == nil {
				a.tokens = map[string]struct{}{}
			}
			a.tokens[tok] = struct{}{}
		}
	case opReset:
		a.spent, a.tokens = dp.Budget{}, nil
	}
}

// decodeLog folds a whole log file. A torn final frame is left out of
// the returned size; interior damage is ErrCorrupt. It never panics on
// hostile input (fuzzed).
func decodeLog(data []byte) (*state, error) {
	if len(data) < headerLen || !bytes.Equal(data[:len(logMagic)], logMagic) {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	s := newState()
	// A copy, so the state does not keep the whole file's bytes alive.
	s.header = bytes.Clone(data[:headerLen])
	var err error
	s.size, err = walk(data[headerLen:], headerLen, s.apply)
	return s, err
}

// Ledger is a persistent per-dataset privacy-budget store, kept as an
// append-only log. Every mutation appends one record and fsyncs the
// file before the mutating call returns; there is no tmp-file rename
// per mutation. A failed append is truncated back to the last whole
// record, and a crash mid-append leaves a torn final record that reads
// ignore and the next append cuts, so a debit is on disk whole or not
// at all. Memory holds each dataset's budget, spend and token set; the
// receipts themselves are read from the log only by Account.
//
// Enforcement is default-deny: a dataset with no configured budget
// refuses every spend (set one with SetBudget / `dpkron budget set`).
// Spends are conservative — once debited, a cancelled or failed run
// does not refund, because its mechanisms may already have drawn noise.
//
// A Ledger is safe across goroutines and across processes: every
// operation serializes through an in-process mutex plus an advisory
// file lock on <path>.lock (where the platform provides one; see
// internal/fslock) and first decodes whatever other handles appended
// since its last call, so a budget set by `dpkron budget set` is
// visible to an already-running `dpkron serve`, and concurrent fits
// from separate processes can never jointly overdraw.
type Ledger struct {
	path string
	fs   faultfs.FS
	// met carries the telemetry collectors installed by Instrument;
	// the zero value no-ops.
	met ledgerMetrics
	mu  sync.Mutex
	st  *state
}

// Open validates that the ledger at path is readable (creating nothing
// on disk until the first mutation) and returns a handle. A v1 JSON
// ledger is converted to the log format once, by an atomic rewrite
// under the file lock; older binaries cannot read the result. A stale
// <path>.tmp from a crashed rewrite is ignored; a corrupt ledger file
// is a hard error, never silent data loss.
func Open(path string) (*Ledger, error) { return OpenFS(faultfs.OS, path) }

// OpenFS is Open against an explicit filesystem (fault-injection
// tests).
func OpenFS(fsys faultfs.FS, path string) (*Ledger, error) {
	l := &Ledger{path: path, fs: fsys, st: newState()}
	if _, err := fsys.Stat(path); os.IsNotExist(err) {
		return l, nil
	}
	if err := l.withLocked(func(int64) error { return nil }); err != nil {
		return nil, err
	}
	return l, nil
}

// Path returns the ledger file location.
func (l *Ledger) Path() string { return l.path }

// syncLocked brings memory up to date with the file and returns the
// file's size (0 when it does not exist). Only the bytes appended
// since the last call are decoded; the whole file is re-read when it
// shrank, its header changed, or it is not yet a log. Callers hold
// l.mu and the file lock.
func (l *Ledger) syncLocked() (int64, error) {
	fi, err := l.fs.Stat(l.path)
	switch {
	case os.IsNotExist(err):
		l.st = newState()
		return 0, nil
	case err != nil:
		return 0, fmt.Errorf("accountant: opening ledger: %w", err)
	}
	size := fi.Size()
	if l.st.header == nil || size < l.st.size {
		return size, l.reloadLocked()
	}
	f, err := l.fs.Open(l.path)
	if err != nil {
		return 0, fmt.Errorf("accountant: opening ledger: %w", err)
	}
	defer f.Close()
	buf := make([]byte, headerLen+size-l.st.size)
	if _, err := f.ReadAt(buf[:headerLen], 0); err != nil {
		return 0, fmt.Errorf("accountant: reading ledger: %w", err)
	}
	if !bytes.Equal(buf[:headerLen], l.st.header) {
		return size, l.reloadLocked()
	}
	tail := buf[headerLen:]
	if len(tail) == 0 {
		return size, nil
	}
	if _, err := f.ReadAt(tail, l.st.size); err != nil && err != io.EOF {
		return 0, fmt.Errorf("accountant: reading ledger: %w", err)
	}
	end, err := walk(tail, l.st.size, l.st.apply)
	if err != nil {
		// Records before the damage may have been applied: forget this
		// handle's state so the next call re-reads from the start.
		l.st = newState()
		return 0, fmt.Errorf("accountant: ledger %s: %w", l.path, err)
	}
	l.st.size = end
	return size, nil
}

// reloadLocked replaces memory with the fold of the whole file,
// converting a v1 JSON ledger to the log first.
func (l *Ledger) reloadLocked() error {
	l.st = newState()
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("accountant: opening ledger: %w", err)
	}
	if !bytes.HasPrefix(data, logMagic[:4]) {
		if data, err = l.convertLocked(data); err != nil {
			return err
		}
	}
	st, err := decodeLog(data)
	if err != nil {
		return fmt.Errorf("accountant: ledger %s: %w", l.path, err)
	}
	l.st = st
	return nil
}

// v1File is the v1 ledger: one JSON document rewritten per mutation.
type v1File struct {
	Datasets map[string]*Account `json:"datasets"`
}

// convertLocked rewrites a v1 JSON ledger as a log holding the same
// accounts and returns the log's bytes. Each dataset's receipts become
// spend records, in order, followed by a budget record that restores
// the v1 file's budget and spend exactly.
func (l *Ledger) convertLocked(v1 []byte) ([]byte, error) {
	var old v1File
	if err := json.Unmarshal(v1, &old); err != nil {
		return nil, fmt.Errorf("%w: %s is neither a ledger log nor a v1 JSON ledger: %v", ErrCorrupt, l.path, err)
	}
	ids := make([]string, 0, len(old.Datasets))
	for id := range old.Datasets {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	data, err := newHeader()
	if err != nil {
		return nil, err
	}
	add := func(rec record) error {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("accountant: converting v1 ledger %s: %w", l.path, err)
		}
		data = frame.Append(data, payload)
		return nil
	}
	for _, id := range ids {
		acct := old.Datasets[id]
		if acct == nil {
			acct = &Account{}
		}
		var spent dp.Budget
		for i := range acct.Receipts {
			spent = dp.Compose(spent, acct.Receipts[i].Total)
			if err := add(record{Op: opSpend, Dataset: id, Receipt: &acct.Receipts[i], Spent: &spent}); err != nil {
				return nil, err
			}
		}
		if err := add(record{Op: opBudget, Dataset: id, Budget: &acct.Budget, Spent: &acct.Spent}); err != nil {
			return nil, err
		}
	}
	if err := faultfs.WriteAtomic(l.fs, l.path, "ledger", data); err != nil {
		return nil, fmt.Errorf("accountant: converting v1 ledger: %w", err)
	}
	return data, nil
}

// newHeader returns a fresh log header with a random file id.
func newHeader() ([]byte, error) {
	h := make([]byte, headerLen)
	copy(h, logMagic)
	if _, err := rand.Read(h[len(logMagic):]); err != nil {
		return nil, fmt.Errorf("accountant: drawing a ledger file id: %w", err)
	}
	return h, nil
}

// withLocked runs fn with the in-process mutex held, the cross-process
// file lock acquired, and memory synced with the file; fn gets the
// file's size. It is the bracket every public operation uses.
func (l *Ledger) withLocked(fn func(size int64) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	unlock, err := fslock.Lock(l.path + ".lock")
	if err != nil {
		return fmt.Errorf("accountant: locking ledger: %w", err)
	}
	defer unlock()
	size, err := l.syncLocked()
	if err != nil {
		return err
	}
	return fn(size)
}

// appendLocked durably appends rec and then folds it into memory. The
// first record creates the file, header included, by an atomic write.
// Otherwise a torn tail past the last whole record (size > l.st.size)
// is cut first, and a failed write or fsync truncates the file back to
// the last whole record, leaving memory unchanged.
func (l *Ledger) appendLocked(size int64, rec record) error {
	// A receipt carrying NaN or ±Inf cannot be encoded: refused here.
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("accountant: encoding ledger record: %w", err)
	}
	if l.st.header == nil {
		header, err := newHeader()
		if err != nil {
			return err
		}
		data := frame.Append(header, payload)
		if err := faultfs.WriteAtomic(l.fs, l.path, "ledger", data); err != nil {
			return fmt.Errorf("accountant: %w", err)
		}
		l.st.header, l.st.size = header, int64(len(data))
		l.st.apply(rec)
		return nil
	}
	if size > l.st.size {
		if err := l.fs.Truncate(l.path, l.st.size); err != nil {
			return fmt.Errorf("accountant: cutting torn ledger tail: %w", err)
		}
	}
	buf := frame.Append(nil, payload)
	if err := l.writeSync(buf); err != nil {
		// The write may have landed in part or in whole: cut it, so the
		// file holds no record this handle did not apply.
		_ = l.fs.Truncate(l.path, l.st.size)
		return fmt.Errorf("accountant: %w", err)
	}
	l.st.size += int64(len(buf))
	l.st.apply(rec)
	return nil
}

// writeSync appends buf to the ledger file and fsyncs it.
func (l *Ledger) writeSync(buf []byte) error {
	f, err := l.fs.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("appending to ledger: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("appending to ledger: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("syncing ledger: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing ledger: %w", err)
	}
	return nil
}

// SetBudget configures (or raises/lowers) the total allowance of a
// dataset, creating its account if needed. Existing spend is kept: a
// budget below the current spend leaves the dataset exhausted.
func (l *Ledger) SetBudget(dataset string, b dp.Budget) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return l.withLocked(func(size int64) error {
		if err := l.appendLocked(size, record{Op: opBudget, Dataset: dataset, Budget: &b}); err != nil {
			return err
		}
		l.met.setRemaining(dataset, l.st.accts[dataset].remaining())
		return nil
	})
}

// Reset zeroes a dataset's spend and drops its receipts, and with them
// their spend tokens, keeping the configured budget. Only sound when
// the previously released outputs have been destroyed or the dataset's
// privacy story is otherwise restarted — the ledger cannot know; the
// operator must.
func (l *Ledger) Reset(dataset string) error {
	return l.withLocked(func(size int64) error {
		if l.st.accts[dataset] == nil {
			return fmt.Errorf("accountant: unknown dataset %q", dataset)
		}
		if err := l.appendLocked(size, record{Op: opReset, Dataset: dataset}); err != nil {
			return err
		}
		l.met.setRemaining(dataset, l.st.accts[dataset].remaining())
		return nil
	})
}

func (a *account) remaining() dp.Budget { return remaining(a.budget, a.spent) }

// Account returns the dataset's entry as currently on disk, receipts
// included. It is the one call that reads the whole log, to collect
// the receipts since the dataset's last reset.
func (l *Ledger) Account(dataset string) (Account, bool) {
	var out Account
	var ok bool
	_ = l.withLocked(func(int64) error {
		a := l.st.accts[dataset]
		if a == nil {
			return nil
		}
		data, err := l.fs.ReadFile(l.path)
		if err != nil || int64(len(data)) < l.st.size {
			return err // the file changed under the lock: no account
		}
		var receipts []Receipt
		if _, err := walk(data[headerLen:l.st.size], headerLen, func(rec record) {
			switch {
			case rec.Dataset != dataset:
			case rec.Op == opSpend:
				receipts = append(receipts, *rec.Receipt)
			case rec.Op == opReset:
				receipts = nil
			}
		}); err != nil {
			return err
		}
		out, ok = Account{Budget: a.budget, Spent: a.spent, Receipts: receipts}, true
		return nil
	})
	return out, ok
}

// Datasets returns the known dataset ids, sorted.
func (l *Ledger) Datasets() []string {
	var out []string
	_ = l.withLocked(func(int64) error {
		for id := range l.st.accts {
			out = append(out, id)
		}
		return nil
	})
	slices.Sort(out)
	return out
}

// Remaining returns the budget left on a dataset. Unknown datasets
// have zero budget (default-deny) and report zero remaining.
func (l *Ledger) Remaining(dataset string) dp.Budget {
	var rem dp.Budget
	_ = l.withLocked(func(int64) error {
		if a := l.st.accts[dataset]; a != nil {
			rem = a.remaining()
		}
		return nil
	})
	return rem
}

// Spend atomically debits r.Total from the dataset's remaining budget
// and appends the receipt, persisting it before returning. It refuses
// with an *ExhaustedError (matching ErrBudgetExhausted) when the
// remaining budget cannot cover the receipt — including for datasets
// with no configured budget, whose allowance is zero. The
// sync-check-append sequence holds both the in-process and the
// cross-process ledger lock throughout, so concurrent spenders —
// goroutines or separate processes — can never jointly overdraw.
func (l *Ledger) Spend(dataset string, r Receipt) error {
	r.Token = ""
	return l.spend(dataset, r)
}

// SpendToken is Spend made idempotent under token: the receipt is
// recorded with the token, and a later SpendToken with the same token
// on the same dataset succeeds without debiting again. This resolves
// the two-phase crash window between a ledger debit and the journal
// record acknowledging it — replay always re-issues the spend, and
// exactly one debit lands regardless of where the crash fell. Tokens
// are kept until the dataset is Reset; use job-unique ids.
func (l *Ledger) SpendToken(dataset string, r Receipt, token string) error {
	if token == "" {
		return fmt.Errorf("accountant: SpendToken requires a token")
	}
	r.Token = token
	return l.spend(dataset, r)
}

func (l *Ledger) spend(dataset string, r Receipt) error {
	return l.withLocked(func(size int64) error {
		a := l.st.accts[dataset]
		var have account
		if a != nil {
			if _, dup := a.tokens[r.Token]; dup && r.Token != "" {
				return nil // this exact debit already landed
			}
			have = *a
		}
		if have.spent.Eps+r.Total.Eps > have.budget.Eps+budgetSlack ||
			have.spent.Delta+r.Total.Delta > have.budget.Delta+budgetSlack {
			l.met.refusals.With(dataset).Inc()
			return &ExhaustedError{
				Dataset:   dataset,
				Requested: r.Total,
				Spent:     have.spent,
				Limit:     have.budget,
			}
		}
		// Stamp the acceptance instant: receipts in the ledger carry
		// when each debit landed, giving `dpkron audit` a chronology
		// even for spends no journal witnessed. Times never feed
		// release keys, so fixed-seed fingerprints are unaffected.
		now := l.fs.Now()
		r.Time = &now
		spent := dp.Compose(have.spent, r.Total)
		if err := l.appendLocked(size, record{Op: opSpend, Dataset: dataset, Receipt: &r, Spent: &spent}); err != nil {
			return err
		}
		l.met.debits.With(dataset).Inc()
		l.met.setRemaining(dataset, l.st.accts[dataset].remaining())
		return nil
	})
}
