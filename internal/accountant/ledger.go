package accountant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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

// The on-disk log ("DPKL", version 1) is a frame.Log: a header with a
// random file id, then one frame per record. logFormat is its format.
const logMagic = "DPKL\x01"

// maxRecordBytes bounds one record on decode, so a corrupt length
// cannot force a huge allocation; a receipt is well under 1 KiB.
const maxRecordBytes = 1 << 20

var logFormat = frame.Format{Magic: logMagic, What: "ledger", MaxLen: maxRecordBytes, Corrupt: ErrCorrupt, Convert: convertV1}

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

// accounts is the fold of a log: each dataset's state.
type accounts map[string]*account

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

// applyFrame decodes one frame's record and folds it into the
// accounts.
func (s accounts) applyFrame(off int64, payload []byte) error {
	rec, err := decodeRecord(off, payload)
	if err == nil {
		s.apply(rec)
	}
	return err
}

// apply folds one record into the accounts.
func (s accounts) apply(rec record) {
	a := s[rec.Dataset]
	if a == nil {
		a = &account{}
		s[rec.Dataset] = a
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

// Ledger is a persistent per-dataset privacy-budget store, kept as an
// append-only log whose file discipline lives in frame.Log. Every
// mutation appends one record and fsyncs the file before the mutating
// call returns; there is no tmp-file rename per mutation. A failed
// append is truncated back to the last whole record, and a crash
// mid-append leaves a torn final record that reads ignore and the next
// append cuts, so a debit is on disk whole or not at all. Memory holds
// each dataset's budget, spend and token set; the receipts themselves
// are read from the log only by Account.
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
	met   ledgerMetrics
	mu    sync.Mutex
	log   *frame.Log
	accts accounts
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
	l := &Ledger{path: path, fs: fsys, log: frame.NewLog(fsys, path, logFormat, false), accts: accounts{}}
	if _, err := fsys.Stat(path); os.IsNotExist(err) {
		return l, nil
	}
	if err := l.withLocked(func() error { return nil }); err != nil {
		return nil, err
	}
	return l, nil
}

// Path returns the ledger file location.
func (l *Ledger) Path() string { return l.path }

// convertV1 returns the accounts of a v1 ledger — one JSON document
// rewritten per mutation — as the frames of log records, which the log
// is rewritten to hold. Each dataset's receipts become spend records,
// in order, followed by a budget record that restores the v1 file's
// budget and spend exactly.
func convertV1(v1 []byte) ([]byte, error) {
	var old struct {
		Datasets map[string]*Account `json:"datasets"`
	}
	if err := json.Unmarshal(v1, &old); err != nil {
		return nil, fmt.Errorf("%w: neither a ledger log nor a v1 JSON ledger: %v", ErrCorrupt, err)
	}
	ids := make([]string, 0, len(old.Datasets))
	for id := range old.Datasets {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var frames []byte
	var err error
	add := func(rec record) {
		if err == nil {
			var p []byte
			p, err = json.Marshal(rec)
			frames = frame.Append(frames, p)
		}
	}
	for _, id := range ids {
		acct := old.Datasets[id]
		if acct == nil {
			acct = &Account{}
		}
		var spent dp.Budget
		for i := range acct.Receipts {
			spent = dp.Compose(spent, acct.Receipts[i].Total)
			add(record{Op: opSpend, Dataset: id, Receipt: &acct.Receipts[i], Spent: &spent})
		}
		add(record{Op: opBudget, Dataset: id, Budget: &acct.Budget, Spent: &acct.Spent})
	}
	return frames, err
}

// withLocked runs fn with the in-process mutex held, the cross-process
// file lock acquired, and memory up to date with the file. It is the
// bracket every public operation uses.
func (l *Ledger) withLocked(fn func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	unlock, err := fslock.Lock(l.path + ".lock")
	if err != nil {
		return fmt.Errorf("accountant: locking ledger: %w", err)
	}
	defer unlock()
	if err := l.log.Read(func() { clear(l.accts) }, l.accts.applyFrame); err != nil {
		return fmt.Errorf("accountant: %w", err)
	}
	return fn()
}

// commit durably appends rec, then folds it into memory and publishes
// the dataset's remaining budget.
func (l *Ledger) commit(rec record) error {
	// A receipt carrying NaN or ±Inf cannot be encoded: refused here.
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("accountant: encoding ledger record: %w", err)
	}
	if err := l.log.Append(payload, true); err != nil {
		return fmt.Errorf("accountant: %w", err)
	}
	l.accts.apply(rec)
	l.met.setRemaining(rec.Dataset, l.accts[rec.Dataset].remaining())
	return nil
}

// SetBudget configures (or raises/lowers) the total allowance of a
// dataset, creating its account if needed. Existing spend is kept: a
// budget below the current spend leaves the dataset exhausted.
func (l *Ledger) SetBudget(dataset string, b dp.Budget) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return l.withLocked(func() error {
		return l.commit(record{Op: opBudget, Dataset: dataset, Budget: &b})
	})
}

// Reset zeroes a dataset's spend and drops its receipts, and with them
// their spend tokens, keeping the configured budget. Only sound when
// the previously released outputs have been destroyed or the dataset's
// privacy story is otherwise restarted — the ledger cannot know; the
// operator must.
func (l *Ledger) Reset(dataset string) error {
	return l.withLocked(func() error {
		if l.accts[dataset] == nil {
			return fmt.Errorf("accountant: unknown dataset %q", dataset)
		}
		return l.commit(record{Op: opReset, Dataset: dataset})
	})
}

func (a *account) remaining() dp.Budget { return remaining(a.budget, a.spent) }

// Account returns the dataset's entry as currently on disk, receipts
// included; ok is false for a dataset the ledger has never seen. It is
// the one call that reads the whole log, to collect the receipts since
// the dataset's last reset, so damage anywhere in the log is an error.
func (l *Ledger) Account(dataset string) (acct Account, ok bool, err error) {
	err = l.withLocked(func() error {
		a := l.accts[dataset]
		if a == nil {
			return nil
		}
		var receipts []Receipt
		data, err := l.fs.ReadFile(l.path)
		if err == nil {
			_, err = logFormat.Decode(data, func(off int64, payload []byte) error {
				rec, err := decodeRecord(off, payload)
				switch {
				case err != nil:
					return err
				case rec.Dataset != dataset:
				case rec.Op == opSpend:
					receipts = append(receipts, *rec.Receipt)
				case rec.Op == opReset:
					receipts = nil
				}
				return nil
			})
		}
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("accountant: reading ledger %s: %w", l.path, err)
		}
		acct, ok = Account{Budget: a.budget, Spent: a.spent, Receipts: receipts}, true
		return nil
	})
	return acct, ok, err
}

// Datasets returns the known dataset ids, sorted.
func (l *Ledger) Datasets() ([]string, error) {
	var out []string
	err := l.withLocked(func() error {
		for id := range l.accts {
			out = append(out, id)
		}
		return nil
	})
	slices.Sort(out)
	return out, err
}

// Remaining returns the budget left on a dataset. Unknown datasets
// have zero budget (default-deny) and report zero remaining.
func (l *Ledger) Remaining(dataset string) dp.Budget {
	var rem dp.Budget
	_ = l.withLocked(func() error {
		if a := l.accts[dataset]; a != nil {
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
	return l.withLocked(func() error {
		a := l.accts[dataset]
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
		if err := l.commit(record{Op: opSpend, Dataset: dataset, Receipt: &r, Spent: &spent}); err != nil {
			return err
		}
		l.met.debits.With(dataset).Inc()
		return nil
	})
}
