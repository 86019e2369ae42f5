package dataset

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/extsort"
	"dpkron/internal/faultfs"
	"dpkron/internal/graph"
)

// sliceEdgeSource serves a fixed edge-key set from one consolidated
// run under a test temp dir — the test stand-in for a streaming
// sampler. Every Edges call re-reads the same run.
type sliceEdgeSource struct {
	n   int
	run *extsort.Run
}

// newKeySource spills keys once through a sorter on fsys (nil selects
// the OS) and consolidates them.
func newKeySource(tb testing.TB, fsys faultfs.FS, n int, keys []int64) *sliceEdgeSource {
	tb.Helper()
	sorter, err := extsort.New(fsys, tb.TempDir(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	w := sorter.Writer()
	for _, k := range keys {
		if err := w.Add(k); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	run, err := sorter.Consolidate()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { run.Close() })
	return &sliceEdgeSource{n: n, run: run}
}

// edgeKeys packs g's edges as upper-triangle keys.
func edgeKeys(g *graph.Graph) []int64 {
	var keys []int64
	g.ForEachEdge(func(u, v int) { keys = append(keys, int64(u)<<32|int64(v)) })
	return keys
}

func newSliceEdgeSource(tb testing.TB, g *graph.Graph) *sliceEdgeSource {
	return newKeySource(tb, nil, g.NumNodes(), edgeKeys(g))
}

func (s *sliceEdgeSource) NumNodes() int { return s.n }

func (s *sliceEdgeSource) Edges() (*extsort.Iterator, error) { return s.run.Iter() }

// TestPutStreamMatchesPut: the streaming ingest is a drop-in for
// PutFormat(v2) — same content-addressed id, same metadata, and the
// same file bytes, for every spill chunk size.
func TestPutStreamMatchesPut(t *testing.T) {
	for name, g := range testGraphs(t) {
		if g.NumNodes() == 0 {
			continue // DatasetID of the empty graph is fine, but Put covers it
		}
		wantID := accountant.DatasetID(g)
		wantBytes := MarshalV2(g)
		for _, chunk := range []int{7, extsort.DefaultChunk} {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			m, created, err := st.putStream(newSliceEdgeSource(t, g), "s", "streamed", chunk)
			if err != nil {
				t.Fatalf("%s (chunk %d): %v", name, chunk, err)
			}
			if !created {
				t.Fatalf("%s: first PutStream reported existing", name)
			}
			if m.ID != wantID {
				t.Fatalf("%s: streamed id %s, want %s", name, m.ID, wantID)
			}
			if m.Nodes != g.NumNodes() || m.Edges != g.NumEdges() || m.Format != 2 {
				t.Fatalf("%s: meta %+v does not describe the graph", name, m)
			}
			onDisk, err := os.ReadFile(st.graphPath(m.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, wantBytes) {
				t.Fatalf("%s (chunk %d): streamed v2 file differs from MarshalV2", name, chunk)
			}
			back, err := st.Load(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(back) {
				t.Fatalf("%s: loaded streamed graph differs", name)
			}
			// Re-streaming the identical graph is a no-op detected before
			// any file write (the id forms during pass 1).
			m2, created, err := st.putStream(newSliceEdgeSource(t, g), "s", "streamed", chunk)
			if err != nil {
				t.Fatal(err)
			}
			if created || m2.ID != m.ID {
				t.Fatalf("%s: re-stream was not an idempotent no-op", name)
			}
		}
	}
}

// TestPutStreamRejectsBadEdges: a source yielding out-of-range or
// misordered node pairs fails with an error, not a corrupt dataset.
func TestPutStreamRejectsBadEdges(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]int64{
		"v-out-of-range": int64(1)<<32 | 9,
		"self-loop":      int64(2)<<32 | 2,
		"inverted":       int64(3)<<32 | 1,
	}
	for name, key := range cases {
		if _, _, err := st.PutStream(newKeySource(t, nil, 4, []int64{key}), "bad", "test"); err == nil {
			t.Errorf("%s: PutStream accepted a hostile edge stream", name)
		}
	}
	// A top-up slice that breaks IterWith's sorted contract makes the
	// merge yield keys out of order.
	src := &topUpSource{newKeySource(t, nil, 100, []int64{1<<32 | 2}), []int64{50<<32 | 51, 3<<32 | 4}}
	if _, _, err := st.PutStream(src, "bad", "test"); !errors.Is(err, errSourceChanged) {
		t.Errorf("unsorted: got %v, want errSourceChanged", err)
	}
}

// topUpSource merges a run with an in-memory top-up, as skg.EdgeStream
// does.
type topUpSource struct {
	*sliceEdgeSource
	extra []int64
}

func (s *topUpSource) Edges() (*extsort.Iterator, error) { return s.run.IterWith(s.extra) }

// TestPutStreamWindows: the row-windowed adjacency is byte-identical to
// MarshalV2, with DatasetID's id, for windows of a few rows, for a hub
// whose degree exceeds the window (it gets a window of its own), and
// for graphs with isolated rows.
func TestPutStreamWindows(t *testing.T) {
	graphs := testGraphs(t)
	for _, tc := range []struct {
		graph   string
		chunk   int
		windows int // expected window count; 0 skips the check
	}{
		// Budget 8: the hub (degree 32) alone, then 4 leaves a window.
		{"star", 4, 1 + 32/4},
		{"star", 1, 33},
		{"skg-k10", 1, 0},
		{"skg-k10", 2, 0},
		{"skg-k10", 7, 0},
		{"isolated", 1, 0},
		{"complete", 2, 20},
		{"complete", 7, 20},
	} {
		g := graphs[tc.graph]
		inj := faultfs.NewInjector(faultfs.OS)
		src := newKeySource(t, inj, g.NumNodes(), edgeKeys(g))
		opens := inj.Ops(faultfs.OpOpen, ".run")
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := st.putStream(src, "w", "test", tc.chunk)
		if err != nil {
			t.Fatalf("%s (chunk %d): %v", tc.graph, tc.chunk, err)
		}
		if want := accountant.DatasetID(g); m.ID != want {
			t.Fatalf("%s (chunk %d): id %s, want %s", tc.graph, tc.chunk, m.ID, want)
		}
		onDisk, err := os.ReadFile(st.graphPath(m.ID))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, MarshalV2(g)) {
			t.Fatalf("%s (chunk %d): streamed v2 file differs from MarshalV2", tc.graph, tc.chunk)
		}
		// One counting pass, then one pass per window.
		if passes := inj.Ops(faultfs.OpOpen, ".run") - opens; tc.windows > 0 && passes != 1+tc.windows {
			t.Errorf("%s (chunk %d): %d passes over the source, want 1 + %d windows", tc.graph, tc.chunk, passes, tc.windows)
		}
	}
}

// changingSource yields one edge set on its first Edges call and
// another on every later call, as a source mutated between the
// counting pass and the window passes would.
type changingSource struct {
	first, later *sliceEdgeSource
	calls        int
}

func (s *changingSource) NumNodes() int { return s.first.n }

func (s *changingSource) Edges() (*extsort.Iterator, error) {
	s.calls++
	if s.calls == 1 {
		return s.first.Edges()
	}
	return s.later.Edges()
}

// TestPutStreamSourceChanged: a source whose window passes disagree
// with its counting pass — same edge count, one edge moved, or one edge
// dropped — fails with errSourceChanged and leaves no temporary file
// and no dataset behind.
func TestPutStreamSourceChanged(t *testing.T) {
	g := testGraphs(t)["path"]
	key := func(u, v int) int64 { return int64(u)<<32 | int64(v) }
	for name, move := range map[string][2]int64{
		"same-row":  {key(10, 11), key(10, 12)},
		"far-row":   {key(0, 1), key(0, 99)},
		"new-row":   {key(50, 51), key(70, 90)},
		"last-rows": {key(98, 99), key(3, 5)},
		"dropped":   {key(40, 41), -1},
	} {
		for _, chunk := range []int{1, 7, extsort.DefaultChunk} {
			var later []int64
			for _, k := range edgeKeys(g) {
				if k == move[0] {
					k = move[1]
				}
				if k >= 0 {
					later = append(later, k)
				}
			}
			src := &changingSource{
				first: newSliceEdgeSource(t, g),
				later: newKeySource(t, nil, g.NumNodes(), later),
			}
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.putStream(src, "c", "test", chunk); !errors.Is(err, errSourceChanged) {
				t.Errorf("%s (chunk %d): got %v, want errSourceChanged", name, chunk, err)
			}
			if list, err := st.List(); err != nil || len(list) != 0 {
				t.Errorf("%s (chunk %d): store lists %v (err %v) after a failed put", name, chunk, list, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") || strings.HasSuffix(e.Name(), graphExt) {
					t.Errorf("%s (chunk %d): %s left behind", name, chunk, e.Name())
				}
			}
		}
	}
}

// TestPutStreamFaults: window and commit failures during streaming
// ingest surface as errors and leave no torn dataset behind. The
// adjacency (159 KB) spans several buffered writes and, at chunk 3,
// one window per row.
func TestPutStreamFaults(t *testing.T) {
	g := graph.Complete(200)
	for fault, f := range map[string]faultfs.Fault{
		"graph-rename": {Op: faultfs.OpRename, Path: graphExt},
		"graph-write":  {Op: faultfs.OpWrite, Path: graphExt + ".tmp", Short: 8},
		// The second buffered write lands after the first windows.
		"window-write":  {Op: faultfs.OpWrite, Path: graphExt + ".tmp", After: 1, Short: 8},
		"window-reread": {Op: faultfs.OpOpen, Path: ".run", After: 2},
		"meta-sync":     {Op: faultfs.OpSync, Path: metaExt},
	} {
		inj := faultfs.NewInjector(faultfs.OS)
		st, err := OpenFS(inj, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// The source reads its run through the injector too, so a failed
		// re-read of a later window is one of the faults.
		src := newKeySource(t, inj, g.NumNodes(), edgeKeys(g))
		inj.Fail(f)
		_, _, err = st.putStream(src, "f", "test", 3)
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("%s: got %v, want ErrInjected", fault, err)
		}
		// Whatever failed, the store must not list a dataset whose graph
		// file is absent or torn.
		list, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range list {
			if _, err := st.Load(m.ID); err != nil {
				t.Errorf("%s: store lists %s but it does not load: %v", fault, m.ID, err)
			}
		}
	}
}

// TestStoreCacheBudget: heap-decoded graphs are evicted oldest-first
// past the byte budget, while the newest entry always survives.
func TestStoreCacheBudget(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 2; i <= 4; i++ {
		m, _, err := st.Put(graph.Complete(100*i), "", "test")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}
	for _, id := range ids {
		if _, err := st.Load(id); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	var total int64
	for id, e := range st.cache {
		total += e.bytes
		if e.bytes <= 0 {
			t.Errorf("heap entry %s carries %d bytes", id, e.bytes)
		}
	}
	if total != st.cacheBytes {
		t.Errorf("cacheBytes %d != sum of entries %d", st.cacheBytes, total)
	}
	st.mu.Unlock()

	// Shrink the budget by loading under a tiny artificial one: evict by
	// hand through the same code path Delete uses, then confirm the
	// accounting drains to zero.
	for _, id := range ids {
		st.mu.Lock()
		st.evictLocked(id)
		st.mu.Unlock()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cacheBytes != 0 || len(st.cache) != 0 || len(st.order) != 0 {
		t.Errorf("after evicting everything: bytes=%d cache=%d order=%d",
			st.cacheBytes, len(st.cache), len(st.order))
	}
}

// TestStoreMmapLoadAndCache: a v2 dataset loads via mmap on supported
// platforms, is cached outside the byte budget, and keeps serving an
// already-loaded graph after deletion (the mapping outlives the file).
func TestStoreMmapLoadAndCache(t *testing.T) {
	g := testGraphs(t)["skg-k10"]
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.PutFormat(g, "v2", "test", 2)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := st.FileInfo(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Format != 2 || fi.Bytes != m.Bytes {
		t.Fatalf("FileInfo %+v disagrees with meta %+v", fi, m)
	}
	loaded, err := st.Load(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(loaded) {
		t.Fatal("v2 load changed the graph")
	}
	st.mu.Lock()
	e := st.cache[m.ID]
	inOrder := false
	for _, id := range st.order {
		if id == m.ID {
			inOrder = true
		}
	}
	st.mu.Unlock()
	if fi.Mmap {
		if e.bytes != 0 || inOrder {
			t.Errorf("mapped graph charged to the heap budget (bytes=%d, inOrder=%v)", e.bytes, inOrder)
		}
	} else if e.bytes == 0 {
		t.Error("heap-decoded v2 graph not charged to the budget")
	}
	if err := st.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	// The held reference stays fully readable after deletion: on unix
	// the kernel keeps the unlinked inode alive under the mapping.
	deg := 0
	loaded.ForEachEdge(func(u, v int) { deg++ })
	if deg != g.NumEdges() {
		t.Fatalf("post-delete iteration saw %d edges, want %d", deg, g.NumEdges())
	}
}

// TestStoreConvert exercises both conversion directions against the
// same id and checks Load works after each rewrite.
func TestStoreConvert(t *testing.T) {
	g := testGraphs(t)["skg-balldrop"]
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.Put(g, "conv", "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []int{2, 2, 1, 2, 1} { // includes no-op repeats
		cm, err := st.Convert(m.ID, format)
		if err != nil {
			t.Fatalf("convert to v%d: %v", format, err)
		}
		if cm.ID != m.ID {
			t.Fatalf("convert changed the id: %s -> %s", m.ID, cm.ID)
		}
		if cm.Format != format {
			t.Fatalf("convert to v%d reported format %d", format, cm.Format)
		}
		fi, err := st.FileInfo(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Format != format || fi.Bytes != cm.Bytes {
			t.Fatalf("after convert to v%d: FileInfo %+v vs meta %+v", format, fi, cm)
		}
		back, err := st.Load(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(back) {
			t.Fatalf("graph changed across conversion to v%d", format)
		}
	}
	if _, err := st.Convert(m.ID, 3); err == nil {
		t.Error("convert accepted an unknown format")
	}
	if _, err := st.Convert("ds-0000000000000000", 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("convert of a missing dataset: got %v, want ErrNotFound", err)
	}
}
