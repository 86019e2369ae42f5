package accountant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"dpkron/internal/dp"
	"dpkron/internal/faultfs"
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

// ledgerFile is the on-disk JSON shape.
type ledgerFile struct {
	Version  int                 `json:"version"`
	Datasets map[string]*Account `json:"datasets"`
}

const ledgerVersion = 1

// Ledger is a persistent per-dataset privacy-budget store. Every
// mutation is written to <path>.tmp and atomically renamed over the
// ledger file before the mutating call returns, so a crash mid-write
// leaves either the old state or the new — never a torn file.
//
// Enforcement is default-deny: a dataset with no configured budget
// refuses every spend (set one with SetBudget / `dpkron budget set`).
// Spends are conservative — once debited, a cancelled or failed run
// does not refund, because its mechanisms may already have drawn noise.
//
// A Ledger is safe across goroutines and across processes: every
// operation serializes through an in-process mutex plus an advisory
// file lock on <path>.lock (where the platform provides one; see
// internal/fslock) and re-reads the file before acting, so a budget set by
// `dpkron budget set` is visible to an already-running `dpkron serve`,
// and concurrent fits from separate processes can never jointly
// overdraw.
type Ledger struct {
	path string
	fs   faultfs.FS
	// met carries the telemetry collectors installed by Instrument;
	// the zero value no-ops.
	met  ledgerMetrics
	mu   sync.Mutex
	data ledgerFile
}

// Open validates that the ledger at path is readable (creating nothing
// on disk until the first mutation) and returns a handle. A stale
// <path>.tmp from a crashed writer is ignored and overwritten by the
// next successful write; a corrupt ledger file is a hard error, never
// silent data loss.
func Open(path string) (*Ledger, error) { return OpenFS(faultfs.OS, path) }

// OpenFS is Open against an explicit filesystem (fault-injection
// tests).
func OpenFS(fsys faultfs.FS, path string) (*Ledger, error) {
	l := &Ledger{path: path, fs: fsys}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.reloadLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Path returns the ledger file location.
func (l *Ledger) Path() string { return l.path }

// reloadLocked replaces the in-memory state with the current on-disk
// state (empty when the file does not exist). Callers hold l.mu.
func (l *Ledger) reloadLocked() error {
	l.data = ledgerFile{Version: ledgerVersion, Datasets: map[string]*Account{}}
	b, err := l.fs.ReadFile(l.path)
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return fmt.Errorf("accountant: opening ledger: %w", err)
	}
	if err := json.Unmarshal(b, &l.data); err != nil {
		return fmt.Errorf("accountant: ledger %s is corrupt: %w", l.path, err)
	}
	if l.data.Datasets == nil {
		l.data.Datasets = map[string]*Account{}
	}
	return nil
}

// withLocked runs fn with the in-process mutex held, the cross-process
// file lock acquired, and the state freshly reloaded from disk — the
// read-modify-write bracket every public operation uses.
func (l *Ledger) withLocked(fn func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	unlock, err := fslock.Lock(l.path + ".lock")
	if err != nil {
		return fmt.Errorf("accountant: locking ledger: %w", err)
	}
	defer unlock()
	if err := l.reloadLocked(); err != nil {
		return err
	}
	return fn()
}

// persistLocked writes the current state via tmp-file + atomic rename.
func (l *Ledger) persistLocked() error {
	b, err := json.MarshalIndent(&l.data, "", "  ")
	if err != nil {
		return err
	}
	if err := faultfs.WriteAtomic(l.fs, l.path, "ledger", append(b, '\n')); err != nil {
		return fmt.Errorf("accountant: %w", err)
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
	return l.withLocked(func() error {
		acct := l.data.Datasets[dataset]
		if acct == nil {
			acct = &Account{}
			l.data.Datasets[dataset] = acct
		}
		acct.Budget = b
		if err := l.persistLocked(); err != nil {
			return err
		}
		l.met.setRemaining(dataset, acct.Remaining())
		return nil
	})
}

// Reset zeroes a dataset's spend and drops its receipts, keeping the
// configured budget. Only sound when the previously released outputs
// have been destroyed or the dataset's privacy story is otherwise
// restarted — the ledger cannot know; the operator must.
func (l *Ledger) Reset(dataset string) error {
	return l.withLocked(func() error {
		acct := l.data.Datasets[dataset]
		if acct == nil {
			return fmt.Errorf("accountant: unknown dataset %q", dataset)
		}
		acct.Spent = dp.Budget{}
		acct.Receipts = nil
		if err := l.persistLocked(); err != nil {
			return err
		}
		l.met.setRemaining(dataset, acct.Remaining())
		return nil
	})
}

// Account returns a copy of the dataset's entry as currently on disk.
func (l *Ledger) Account(dataset string) (Account, bool) {
	var cp Account
	var ok bool
	_ = l.withLocked(func() error {
		if acct := l.data.Datasets[dataset]; acct != nil {
			cp = *acct
			cp.Receipts = append([]Receipt(nil), acct.Receipts...)
			ok = true
		}
		return nil
	})
	return cp, ok
}

// Datasets returns the known dataset ids, sorted.
func (l *Ledger) Datasets() []string {
	var out []string
	_ = l.withLocked(func() error {
		for id := range l.data.Datasets {
			out = append(out, id)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// Remaining returns the budget left on a dataset. Unknown datasets
// have zero budget (default-deny) and report zero remaining.
func (l *Ledger) Remaining(dataset string) dp.Budget {
	acct, ok := l.Account(dataset)
	if !ok {
		return dp.Budget{}
	}
	return acct.Remaining()
}

// Spend atomically debits r.Total from the dataset's remaining budget
// and appends the receipt, persisting the new state before returning.
// It refuses with an *ExhaustedError (matching ErrBudgetExhausted)
// when the remaining budget cannot cover the receipt — including for
// datasets with no configured budget, whose allowance is zero. The
// reload-check-debit-persist sequence holds both the in-process and
// the cross-process ledger lock throughout, so concurrent spenders —
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
// are never garbage-collected from receipts; use job-unique ids.
func (l *Ledger) SpendToken(dataset string, r Receipt, token string) error {
	if token == "" {
		return fmt.Errorf("accountant: SpendToken requires a token")
	}
	r.Token = token
	return l.spend(dataset, r)
}

func (l *Ledger) spend(dataset string, r Receipt) error {
	return l.withLocked(func() error {
		acct := l.data.Datasets[dataset]
		if r.Token != "" && acct != nil {
			for _, prev := range acct.Receipts {
				if prev.Token == r.Token {
					return nil // this exact debit already landed
				}
			}
		}
		var have Account
		if acct != nil {
			have = *acct
		}
		if have.Spent.Eps+r.Total.Eps > have.Budget.Eps+budgetSlack ||
			have.Spent.Delta+r.Total.Delta > have.Budget.Delta+budgetSlack {
			l.met.refusals.With(dataset).Inc()
			return &ExhaustedError{
				Dataset:   dataset,
				Requested: r.Total,
				Spent:     have.Spent,
				Limit:     have.Budget,
			}
		}
		if acct == nil {
			// Unreachable while default-deny holds (zero budget refuses
			// all positive spends), but keeps a zero-cost receipt
			// well-defined.
			acct = &Account{}
			l.data.Datasets[dataset] = acct
		}
		// Stamp the acceptance instant: receipts in the ledger carry
		// when each debit landed, giving `dpkron audit` a chronology
		// even for spends no journal witnessed. Times never feed
		// release keys, so fixed-seed fingerprints are unaffected.
		now := l.fs.Now()
		r.Time = &now
		acct.Spent = dp.Compose(acct.Spent, r.Total)
		acct.Receipts = append(acct.Receipts, r)
		if err := l.persistLocked(); err != nil {
			// Roll back the in-memory debit so memory and disk agree.
			acct.Spent = have.Spent
			acct.Receipts = acct.Receipts[:len(acct.Receipts)-1]
			return err
		}
		l.met.debits.With(dataset).Inc()
		l.met.setRemaining(dataset, acct.Remaining())
		return nil
	})
}
