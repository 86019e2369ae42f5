// Package release is a persistent, content-addressed cache of
// privatized fit results. Under differential privacy, post-processing
// is free: once a release has been produced for a given (dataset,
// ε, δ, composition policy, mechanism config, seed) question, serving
// the stored answer again consumes zero additional budget and zero
// compute. The cache therefore turns the server's scaling story from
// "one fit per request" into "one fit per distinct question".
//
// Correctness is a privacy property here. A spurious miss double-
// debits a budget that should have been charged once; a wrong hit
// returns the answer to a different question. Both failure modes are
// pinned by tests: every component of Key feeds the fingerprint (a
// table-driven property test fails when a field is added without
// extending it), and persisted entries carry a payload checksum plus
// their own fingerprint, so a corrupt, truncated or bit-flipped file
// is detected, evicted and transparently recomputed instead of served.
//
// Persistence follows the dataset-store discipline: one JSON
// file per entry under the cache directory, written via tmp file +
// fsync + atomic rename, with mutations serialized through an
// in-process mutex plus an advisory file lock (internal/fslock) so
// separate processes can share a directory. A bounded in-memory LRU
// fronts the disk for the hot ids.
package release

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/faultfs"
	"dpkron/internal/fslock"
)

// ErrNotFound marks operations naming a release the cache does not
// hold. Servers map it to 404.
var ErrNotFound = errors.New("release: not found")

// ErrCorrupt marks a persisted entry that failed validation — torn
// JSON, a fingerprint that does not match its key or filename, or a
// payload whose checksum disagrees. Get treats it as a miss (after
// evicting the damaged file); Info surfaces it.
var ErrCorrupt = errors.New("release: corrupt entry")

// Key identifies one distinct private-fit question. Two fits share a
// cache entry exactly when every field matches; the negative-key
// property test in release_test.go enforces that each field feeds
// Fingerprint, so adding a field here without extending Fingerprint
// (and the test's mutation table) is a test failure, not a silent
// cache collision.
type Key struct {
	// DatasetID is the graph's content fingerprint
	// (accountant.DatasetID) — the bytes being fitted, independent of
	// how they arrived or which ledger account pays.
	DatasetID string `json:"dataset_id"`
	// Eps and Delta are the requested privacy budget.
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
	// K is the resolved Kronecker power (callers canonicalize an
	// inferred power before building the key, so "k: 0" and the
	// explicit equivalent share an entry).
	K int `json:"k"`
	// Seed drives all estimator randomness.
	Seed uint64 `json:"seed"`
	// Policy is the composition policy name ("sequential").
	Policy string `json:"policy"`
	// Mechanisms is the canonical serialization of the planned charge
	// schedule (query, mechanism, sensitivity/β, per-charge ε/δ), so a
	// change to the mechanism configuration — even at identical total
	// budget — never reuses an old release.
	Mechanisms string `json:"mechanisms"`
}

// KeyFor builds the Key for a private fit of the identified dataset,
// deriving Policy and Mechanisms from the planned charge schedule
// (core.PlannedReceipt — data-independent, so the key exists before
// the fit runs).
func KeyFor(datasetID string, eps, delta float64, k int, seed uint64, planned accountant.Receipt) Key {
	parts := make([]string, 0, len(planned.Charges))
	for _, c := range planned.Charges {
		parts = append(parts, fmt.Sprintf("%s|%s|s=%.17g|b=%.17g|e=%.17g|d=%.17g",
			c.Query, c.Mechanism, c.Sensitivity, c.Beta, c.Eps, c.Delta))
	}
	return Key{
		DatasetID:  datasetID,
		Eps:        eps,
		Delta:      delta,
		K:          k,
		Seed:       seed,
		Policy:     planned.Policy,
		Mechanisms: strings.Join(parts, ";"),
	}
}

// Fingerprint returns the key's content-addressed id: "rel-" plus the
// first 16 hex digits of a SHA-256 over the canonical field
// serialization — the same shape (and collision budget) as the
// dataset store's "ds-" ids. Every Key field must be hashed here; the
// property test fails otherwise. Floats are serialized at %.17g, the
// round-trip precision the fingerprint tests pin everywhere else.
func (k Key) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "dpkron-release-v1\n")
	fmt.Fprintf(h, "dataset=%s\n", k.DatasetID)
	fmt.Fprintf(h, "eps=%.17g\ndelta=%.17g\n", k.Eps, k.Delta)
	fmt.Fprintf(h, "k=%d\nseed=%d\n", k.K, k.Seed)
	fmt.Fprintf(h, "policy=%s\nmechanisms=%s\n", k.Policy, k.Mechanisms)
	return fmt.Sprintf("rel-%x", h.Sum(nil)[:8])
}

// Entry is one cached release: the key it answers, the released
// payload (opaque JSON — the server stores its fit result shape), and
// the integrity metadata that lets a loaded file prove it is the
// entry that was stored.
type Entry struct {
	// Fingerprint is Key.Fingerprint(), duplicated so a loaded file
	// can be cross-checked against both its filename and its key.
	Fingerprint string `json:"fingerprint"`
	Key         Key    `json:"key"`
	// Stored is the UTC time the release was cached.
	Stored time.Time `json:"stored"`
	// Checksum is the hex SHA-256 of the payload bytes.
	Checksum string `json:"checksum"`
	// Bytes is the payload length.
	Bytes int `json:"bytes"`
	// Payload is the released result, exactly as stored. List strips
	// it; Get and Info include it.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Cache is a release cache rooted at a directory, one JSON file per
// entry named by its fingerprint, with a bounded in-memory LRU in
// front. All methods are safe for concurrent use.
type Cache struct {
	dir string
	fs  faultfs.FS
	// met carries the telemetry collectors installed by Instrument;
	// the zero value no-ops.
	met cacheMetrics

	mu    sync.Mutex
	lru   map[string]*Entry // fingerprint -> validated entry (immutable)
	order []string          // LRU order, least recently used first
}

// lruSize bounds the entries kept hot in memory. Entries are small
// (a fit result is ~1 KiB) so this is generous for the hit path while
// still bounding a long-running server.
const lruSize = 128

// Open returns a Cache rooted at dir, creating the directory if
// needed.
func Open(dir string) (*Cache, error) { return OpenFS(faultfs.OS, dir) }

// OpenFS is Open against an explicit filesystem (fault-injection
// tests).
func OpenFS(fsys faultfs.FS, dir string) (*Cache, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("release: opening cache: %w", err)
	}
	return &Cache{dir: dir, fs: fsys, lru: map[string]*Entry{}}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

const entryExt = ".json"

// validID reports whether id is safe to splice into a filename: the
// "rel-" fingerprint shape with hex digits only, so a hostile id can
// never traverse out of the cache directory (the dataset store's
// guard, with this package's prefix).
func validID(id string) bool {
	if !strings.HasPrefix(id, "rel-") || len(id) != 4+16 {
		return false
	}
	for _, c := range id[4:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) entryPath(fp string) string { return filepath.Join(c.dir, fp+entryExt) }

// lock takes the cache's cross-process mutation lock.
func (c *Cache) lock() (unlock func(), err error) {
	return fslock.Lock(filepath.Join(c.dir, "cache.lock"))
}

// Put stores payload (marshalled as compact JSON) as the release for
// key, overwriting any previous entry, and returns the stored entry.
func (c *Cache) Put(key Key, payload any) (*Entry, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("release: encoding payload: %w", err)
	}
	fp := key.Fingerprint()
	e := &Entry{
		Fingerprint: fp,
		Key:         key,
		Stored:      time.Now().UTC().Truncate(time.Second),
		Checksum:    fmt.Sprintf("%x", sha256.Sum256(raw)),
		Bytes:       len(raw),
		Payload:     raw,
	}
	// Compact marshal (not indented): Payload is a RawMessage and must
	// round-trip byte-identically for the checksum to keep meaning
	// anything; indentation would rewrite its whitespace on encode.
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("release: encoding entry: %w", err)
	}
	unlock, err := c.lock()
	if err != nil {
		return nil, fmt.Errorf("release: locking cache: %w", err)
	}
	defer unlock()
	if err := faultfs.WriteAtomic(c.fs, c.entryPath(fp), c.entryPath(fp), append(data, '\n')); err != nil {
		return nil, fmt.Errorf("release: %w", err)
	}
	c.mu.Lock()
	c.remember(fp, e)
	c.mu.Unlock()
	c.met.puts.Inc()
	return e, nil
}

// Get returns the release stored for key, or ok = false on a miss. A
// persisted entry that fails validation (truncated, bit-flipped, or
// swapped under a wrong name) counts as a miss: the damaged file is
// evicted so the caller transparently recomputes instead of serving
// it or failing.
func (c *Cache) Get(key Key) (*Entry, bool) {
	fp := key.Fingerprint()
	c.mu.Lock()
	if e, ok := c.lru[fp]; ok {
		c.touch(fp)
		c.mu.Unlock()
		// Re-check existence so an entry removed by another process (or
		// `dpkron cache rm`) stops resolving, mirroring the dataset
		// store's stat-before-serve.
		if _, err := c.fs.Stat(c.entryPath(fp)); err == nil {
			c.met.hits.Inc()
			return e, true
		}
		c.mu.Lock()
		c.forget(fp)
		c.mu.Unlock()
		c.met.misses.Inc()
		return nil, false
	}
	c.mu.Unlock()
	e, err := c.loadEntry(fp)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			c.met.corrupt.Inc()
			c.evict(fp)
		}
		c.met.misses.Inc()
		return nil, false
	}
	c.mu.Lock()
	c.remember(fp, e)
	c.mu.Unlock()
	c.met.hits.Inc()
	return e, true
}

// Info returns the entry stored under a fingerprint, payload
// included. Unknown and malformed ids return ErrNotFound; a damaged
// entry returns ErrCorrupt without evicting it, so an operator can
// inspect before removing.
func (c *Cache) Info(fp string) (*Entry, error) {
	if !validID(fp) {
		return nil, fmt.Errorf("%w: malformed id %q", ErrNotFound, fp)
	}
	return c.loadEntry(fp)
}

// List returns every stored release's metadata (payloads stripped),
// sorted by store time then fingerprint. The listing reads fresh from
// disk, so entries added or removed by other processes are visible;
// damaged entries are skipped rather than failing the listing.
func (c *Cache) List() ([]Entry, error) {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("release: listing cache: %w", err)
	}
	var out []Entry
	for _, de := range dirents {
		name := de.Name()
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		fp := strings.TrimSuffix(name, entryExt)
		if !validID(fp) {
			continue
		}
		e, err := c.loadEntry(fp)
		if err != nil {
			continue
		}
		meta := *e
		meta.Payload = nil
		out = append(out, meta)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Stored.Equal(out[j].Stored) {
			return out[i].Stored.Before(out[j].Stored)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out, nil
}

// Delete removes a stored release. Budgets already spent producing it
// remain spent in any ledger — removal frees storage and forces the
// next identical fit to recompute (with a fresh debit).
func (c *Cache) Delete(fp string) error {
	if !validID(fp) {
		return fmt.Errorf("%w: malformed id %q", ErrNotFound, fp)
	}
	unlock, err := c.lock()
	if err != nil {
		return fmt.Errorf("release: locking cache: %w", err)
	}
	defer unlock()
	if _, err := c.fs.Stat(c.entryPath(fp)); os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, fp)
	}
	if err := c.fs.Remove(c.entryPath(fp)); err != nil {
		return fmt.Errorf("release: deleting %s: %w", fp, err)
	}
	c.mu.Lock()
	c.forget(fp)
	c.mu.Unlock()
	return nil
}

// loadEntry reads and fully validates one entry file: parse, filename
// vs stored fingerprint vs recomputed key fingerprint, and payload
// checksum. Every mismatch is ErrCorrupt — a file that cannot prove
// it is the release it claims to be is never served.
func (c *Cache) loadEntry(fp string) (*Entry, error) {
	data, err := c.fs.ReadFile(c.entryPath(fp))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, fp)
		}
		return nil, fmt.Errorf("release: reading %s: %w", fp, err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, fp, err)
	}
	if e.Fingerprint != fp {
		return nil, fmt.Errorf("%w: %s: entry claims fingerprint %s", ErrCorrupt, fp, e.Fingerprint)
	}
	if got := e.Key.Fingerprint(); got != fp {
		return nil, fmt.Errorf("%w: %s: key fingerprints to %s", ErrCorrupt, fp, got)
	}
	if len(e.Payload) == 0 {
		return nil, fmt.Errorf("%w: %s: empty payload", ErrCorrupt, fp)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(e.Payload)); sum != e.Checksum {
		return nil, fmt.Errorf("%w: %s: payload checksum %s, recorded %s", ErrCorrupt, fp, sum, e.Checksum)
	}
	return &e, nil
}

// evict removes a damaged entry file and its LRU slot, best-effort.
func (c *Cache) evict(fp string) {
	if unlock, err := c.lock(); err == nil {
		_ = c.fs.Remove(c.entryPath(fp))
		unlock()
	}
	c.mu.Lock()
	c.forget(fp)
	c.mu.Unlock()
}

// remember inserts (or refreshes) an LRU entry; callers hold c.mu.
func (c *Cache) remember(fp string, e *Entry) {
	if _, ok := c.lru[fp]; ok {
		c.lru[fp] = e
		c.touch(fp)
		return
	}
	c.lru[fp] = e
	c.order = append(c.order, fp)
	if len(c.order) > lruSize {
		delete(c.lru, c.order[0])
		c.order = c.order[1:]
	}
}

// touch moves fp to the most-recently-used end; callers hold c.mu.
func (c *Cache) touch(fp string) {
	for i, id := range c.order {
		if id == fp {
			c.order = append(append(c.order[:i], c.order[i+1:]...), fp)
			return
		}
	}
}

// forget drops fp from the LRU; callers hold c.mu.
func (c *Cache) forget(fp string) {
	delete(c.lru, fp)
	for i, id := range c.order {
		if id == fp {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}
