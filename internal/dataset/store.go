package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dpkron/internal/accountant"
	"dpkron/internal/faultfs"
	"dpkron/internal/fslock"
	"dpkron/internal/graph"
)

// ErrNotFound marks operations naming a dataset id the store does not
// hold. Servers map it to 404.
var ErrNotFound = errors.New("dataset: not found")

// Meta is the per-dataset metadata sidecar, persisted as
// <id>.json next to the binary graph.
type Meta struct {
	// ID is the content-addressed dataset id (accountant.DatasetID):
	// the same id the privacy-budget ledger charges, so budgets follow
	// the graph bytes, not the upload path.
	ID string `json:"id"`
	// Name is the operator-facing label given at import ("ca-grqc").
	Name string `json:"name,omitempty"`
	// Nodes and Edges describe the stored graph.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Source records what the graph was imported from ("snap",
	// "snap+gzip", "mtx", "dpkg", "generated", ...).
	Source string `json:"source,omitempty"`
	// Imported is the UTC time of first import.
	Imported time.Time `json:"imported"`
	// Bytes is the size of the binary graph file.
	Bytes int64 `json:"bytes"`
	// Format is the DPKG layout version of the graph file. The store
	// writes only 2 (mmap-ready fixed-width CSR); 1 (compact varint
	// rows) is the read-only legacy layout of datasets stored by older
	// binaries, and 0 in metadata written before formats existed means
	// 1.
	Format int `json:"format,omitempty"`
}

// Store is a persistent, content-addressed graph store rooted at a
// directory: each dataset is a binary DPKG graph file plus a JSON
// metadata sidecar, both written via tmp-file + atomic rename so a
// crash mid-import leaves no torn dataset. Mutations additionally
// serialize through an in-process mutex plus an advisory file lock
// (internal/fslock, the accountant-ledger pattern) and reload nothing —
// the store keeps no authoritative in-memory state — so separate
// processes sharing a directory (a `dpkron serve` and a concurrent
// `dpkron dataset import`) never corrupt it.
//
// Ids are content-addressed (accountant.DatasetID): a given id can
// only ever name one graph, which makes the read cache below always
// valid and makes re-importing identical bytes a cheap no-op.
//
// Cross-process safety assumes POSIX semantics: on non-unix builds
// fslock is a documented no-op and rename-over-existing may fail, so
// there a store directory should be used by a single process.
type Store struct {
	dir string
	fs  faultfs.FS
	// met carries the telemetry collectors installed by Instrument;
	// the zero value no-ops.
	met storeMetrics

	mu         sync.Mutex
	cache      map[string]cacheEntry // id -> decoded graph (immutable)
	order      []string              // heap-entry eviction order, oldest first
	cacheBytes int64                 // resident bytes of heap entries
}

// cacheEntry is one cached graph plus its residency cost. Mapped
// (mmap-backed) graphs carry bytes = 0: their adjacency lives in the
// page cache, which the kernel already sizes and reclaims, so charging
// them against the heap budget would evict exactly the entries that
// are free to keep.
type cacheEntry struct {
	g     *graph.Graph
	bytes int64
}

// cacheBudget bounds the total resident bytes of heap-decoded graphs
// kept hot (the old bound was 8 entries regardless of size — a few
// k=20 graphs at ~200 MB each blew past any sensible budget). The
// newest entry always stays, even alone over budget: the caller is
// about to use it.
const cacheBudget = 256 << 20

// graphHeapBytes is the CSR residency of a decoded graph: 4 bytes per
// offset, 4 per adjacency slot (each edge appears twice).
func graphHeapBytes(g *graph.Graph) int64 {
	off, adj := g.CSR()
	return 4 * (int64(len(off)) + int64(len(adj)))
}

// Open returns a Store rooted at dir, creating the directory if
// needed.
func Open(dir string) (*Store, error) { return OpenFS(faultfs.OS, dir) }

// OpenFS is Open against an explicit filesystem (fault-injection
// tests).
func OpenFS(fsys faultfs.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: opening store: %w", err)
	}
	return &Store{dir: dir, fs: fsys, cache: map[string]cacheEntry{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

const (
	graphExt = ".dpkg"
	metaExt  = ".json"
)

// validID reports whether id is safe to splice into a filename: the
// "ds-" fingerprint shape with hex digits only, so a hostile id can
// never traverse out of the store directory.
func validID(id string) bool {
	if !strings.HasPrefix(id, "ds-") || len(id) != 3+16 {
		return false
	}
	for _, c := range id[3:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) graphPath(id string) string { return filepath.Join(s.dir, id+graphExt) }
func (s *Store) metaPath(id string) string  { return filepath.Join(s.dir, id+metaExt) }

// lock takes the store's cross-process mutation lock.
func (s *Store) lock() (unlock func(), err error) {
	return fslock.Lock(filepath.Join(s.dir, "store.lock"))
}

// Put imports an in-memory graph under its content fingerprint and
// returns the dataset's metadata plus whether it was newly created.
// The graph file is written in the v2 mmap layout, streamed straight
// into the store (Load then maps it on unix). Importing a graph
// that is already stored is a no-op returning the existing metadata
// (the id is content-addressed, so the graph is guaranteed identical,
// whatever layout its file has); a half-deleted dataset — metadata
// surviving a crash mid-Delete without its graph file, or vice versa —
// is re-imported in full, not mistaken for stored.
func (s *Store) Put(g *graph.Graph, name, source string) (Meta, bool, error) {
	meta := Meta{
		ID:     accountant.DatasetID(g),
		Name:   name,
		Nodes:  g.NumNodes(),
		Edges:  g.NumEdges(),
		Source: source,
	}
	return s.commit(meta, func(w io.Writer) error { return EncodeV2(w, g) })
}

// PutFormat is Put for callers that name the layout, which must be 2:
// the store writes only DPKG v2. It remains because the benchmark
// module (bench/) calls PutFormat(g, name, source, 2).
func (s *Store) PutFormat(g *graph.Graph, name, source string, format int) (Meta, bool, error) {
	if format != codecVersion2 {
		return Meta{}, false, fmt.Errorf("dataset: the store writes only DPKG v2, not v%d", format)
	}
	return s.Put(g, name, source)
}

// commit is the store's one write path. Under the store lock it
// returns the stored metadata when the dataset is already complete
// (sidecar and graph file both present); otherwise it writes the graph
// file atomically from encode, which must render meta's graph in the
// v2 layout, and then the sidecar.
func (s *Store) commit(meta Meta, encode func(io.Writer) error) (Meta, bool, error) {
	unlock, err := s.lock()
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: locking store: %w", err)
	}
	defer unlock()
	path := s.graphPath(meta.ID)
	if m, err := s.readMeta(meta.ID); err == nil {
		if _, err := s.fs.Stat(path); err == nil {
			return m, false, nil
		}
	}
	if err := faultfs.WriteAtomicFunc(s.fs, path, path, encode); err != nil {
		return Meta{}, false, fmt.Errorf("dataset: %w", err)
	}
	meta.Imported = time.Now().UTC().Truncate(time.Second)
	_, meta.Bytes = v2Layout(meta.Nodes, meta.Edges)
	meta.Format = codecVersion2
	if err := s.writeMeta(meta); err != nil {
		return Meta{}, false, err
	}
	return meta, true, nil
}

// writeMeta persists a metadata sidecar atomically.
func (s *Store) writeMeta(m Meta) error {
	mb, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := faultfs.WriteAtomic(s.fs, s.metaPath(m.ID), s.metaPath(m.ID), append(mb, '\n')); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// ImportReader streams a graph from r — SNAP text, gzip, Matrix
// Market, or DPKG binary of either version, auto-detected — into the
// store, which writes it in the v2 layout.
func (s *Store) ImportReader(r io.Reader, name string, opt DecodeOptions) (Meta, error) {
	g, src, err := DecodeGraph(r, opt)
	if err != nil {
		return Meta{}, err
	}
	m, _, err := s.Put(g, name, string(src))
	return m, err
}

// Load returns the stored graph. The decode is cached (graphs are
// immutable and ids content-addressed, so cache entries can never go
// stale), with existence re-checked on disk so a dataset deleted by
// another process stops resolving. DPKG v2 files are opened via mmap
// where supported: the first load streams the mapping once through the
// file's checksum, but never costs a full-file decode onto the heap.
func (s *Store) Load(id string) (*graph.Graph, error) {
	if !validID(id) {
		return nil, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	if _, err := s.fs.Stat(s.graphPath(id)); err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, fmt.Errorf("dataset: loading %s: %w", id, err)
	}
	s.mu.Lock()
	if e, ok := s.cache[id]; ok {
		s.mu.Unlock()
		s.met.loads.With(loadRouteCache).Inc()
		return e.g, nil
	}
	s.mu.Unlock()
	g, mapped, route, err := s.openGraph(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if e, ok := s.cache[id]; ok {
		// Lost a decode race; keep the incumbent (the loser's mapping, if
		// any, is released by its finalizer once g drops out of scope).
		g = e.g
	} else {
		e := cacheEntry{g: g}
		if !mapped {
			e.bytes = graphHeapBytes(g)
			s.order = append(s.order, id)
			s.cacheBytes += e.bytes
		}
		s.cache[id] = e
		for s.cacheBytes > cacheBudget && len(s.order) > 1 {
			victim := s.order[0]
			s.order = s.order[1:]
			s.cacheBytes -= s.cache[victim].bytes
			delete(s.cache, victim)
			s.met.evictions.Inc()
		}
	}
	s.met.resident.Set(float64(s.cacheBytes))
	s.mu.Unlock()
	s.met.loads.With(route).Inc()
	return g, nil
}

// openGraph materializes one dataset from disk: v2 files go through
// OpenMapped (zero-copy mmap where supported, heap fallback
// otherwise), v1 files through the full verifying decode.
func (s *Store) openGraph(id string) (g *graph.Graph, mapped bool, route string, err error) {
	path := s.graphPath(id)
	version, err := s.sniffVersion(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, "", fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, false, "", fmt.Errorf("dataset %s: %w", id, err)
	}
	if version == codecVersion2 {
		g, mapped, err = OpenMapped(path)
		if err != nil {
			return nil, false, "", fmt.Errorf("dataset %s: %w", id, err)
		}
		route = loadRouteV2Heap
		if mapped {
			route = loadRouteMmap
		}
		return g, mapped, route, nil
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, "", fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, false, "", fmt.Errorf("dataset: loading %s: %w", id, err)
	}
	g, err = Unmarshal(data)
	if err != nil {
		return nil, false, "", fmt.Errorf("dataset %s: %w", id, err)
	}
	return g, false, loadRouteV1, nil
}

// sniffVersion reads just enough of a graph file to identify its DPKG
// layout version.
func (s *Store) sniffVersion(path string) (int, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [5]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: file shorter than its magic", ErrTruncated)
	}
	return Version(hdr[:])
}

// FileInfo describes how a dataset sits on disk: its layout version,
// byte size, and whether Load would mmap it on this platform.
type FileInfo struct {
	// Format is the DPKG layout version of the graph file (1 or 2).
	Format int
	// Bytes is the graph file's current size.
	Bytes int64
	// Mmap reports whether Load would open the file zero-copy via mmap
	// on this build (v2 layout on a unix platform).
	Mmap bool
}

// FileInfo inspects the stored graph file of a dataset, sniffing the
// live bytes rather than trusting the metadata sidecar.
func (s *Store) FileInfo(id string) (FileInfo, error) {
	if !validID(id) {
		return FileInfo{}, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	path := s.graphPath(id)
	st, err := s.fs.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return FileInfo{}, fmt.Errorf("dataset: inspecting %s: %w", id, err)
	}
	version, err := s.sniffVersion(path)
	if err != nil {
		return FileInfo{}, fmt.Errorf("dataset %s: %w", id, err)
	}
	return FileInfo{
		Format: version,
		Bytes:  st.Size(),
		Mmap:   version == codecVersion2 && mmapSupported,
	}, nil
}

// Meta returns the stored metadata of a dataset.
func (s *Store) Meta(id string) (Meta, error) {
	if !validID(id) {
		return Meta{}, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	return s.readMeta(id)
}

// Has reports whether the store holds the dataset.
func (s *Store) Has(id string) bool {
	if !validID(id) {
		return false
	}
	_, err := s.fs.Stat(s.graphPath(id))
	return err == nil
}

func (s *Store) readMeta(id string) (Meta, error) {
	b, err := s.fs.ReadFile(s.metaPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return Meta{}, fmt.Errorf("dataset: reading metadata of %s: %w", id, err)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, fmt.Errorf("dataset: metadata of %s is corrupt: %w", id, err)
	}
	return m, nil
}

// List returns the metadata of every stored dataset, sorted by import
// time then id. The listing is read fresh from disk on every call, so
// imports and deletes by other processes are always visible.
func (s *Store) List() ([]Meta, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: listing store: %w", err)
	}
	var out []Meta
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, metaExt) {
			continue
		}
		id := strings.TrimSuffix(name, metaExt)
		if !validID(id) {
			continue
		}
		m, err := s.readMeta(id)
		if err != nil {
			// Skip unreadable entries (a raced delete, or one damaged
			// sidecar) rather than failing the whole listing — every
			// healthy dataset stays visible.
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Imported.Equal(out[j].Imported) {
			return out[i].Imported.Before(out[j].Imported)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Delete removes a dataset's graph and metadata. Budgets already spent
// against its id remain in any ledger — deletion frees storage, it
// does not reset a privacy account.
func (s *Store) Delete(id string) error {
	if !validID(id) {
		return fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	unlock, err := s.lock()
	if err != nil {
		return fmt.Errorf("dataset: locking store: %w", err)
	}
	defer unlock()
	if _, err := s.fs.Stat(s.graphPath(id)); os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err := s.fs.Remove(s.graphPath(id)); err != nil {
		return fmt.Errorf("dataset: deleting %s: %w", id, err)
	}
	if err := s.fs.Remove(s.metaPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dataset: deleting metadata of %s: %w", id, err)
	}
	s.mu.Lock()
	s.evictLocked(id)
	s.mu.Unlock()
	return nil
}

// evictLocked drops one cache entry, refunding its heap budget. Mapped
// entries are not in order and carry zero bytes, so the loop and the
// refund are both no-ops for them; their mapping is released by the
// graph's finalizer once the last user drops it.
func (s *Store) evictLocked(id string) {
	e, ok := s.cache[id]
	if !ok {
		return
	}
	delete(s.cache, id)
	s.cacheBytes -= e.bytes
	s.met.evictions.Inc()
	s.met.resident.Set(float64(s.cacheBytes))
	for i, cid := range s.order {
		if cid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// ExportEdgeList writes the stored graph as SNAP edge-list text — the
// canonical form whose re-import reproduces the identical dataset id.
func (s *Store) ExportEdgeList(id string, w io.Writer) error {
	g, err := s.Load(id)
	if err != nil {
		return err
	}
	return g.WriteEdgeList(w)
}
