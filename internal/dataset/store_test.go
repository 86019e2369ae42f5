package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleGraph(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	m, err := skg.NewModel(skg.Initiator{A: 0.95, B: 0.55, C: 0.3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	return must(m.SampleExactCtx(nil, randx.New(seed)))
}

func TestStoreLifecycle(t *testing.T) {
	s := testStore(t)
	g := sampleGraph(t, 3)

	m, created, err := s.Put(g, "toy", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first Put reported created = false")
	}
	if m.ID != accountant.DatasetID(g) {
		t.Errorf("meta id %s != content fingerprint %s", m.ID, accountant.DatasetID(g))
	}
	if m.Nodes != g.NumNodes() || m.Edges != g.NumEdges() || m.Name != "toy" || m.Source != "generated" {
		t.Errorf("meta %+v does not describe the graph", m)
	}
	if m.Bytes <= 0 || m.Imported.IsZero() {
		t.Errorf("meta missing size/time: %+v", m)
	}

	back, err := s.Load(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("stored graph differs from the original")
	}
	// Loading again hits the cache and still matches.
	again, err := s.Load(m.ID)
	if err != nil || !g.Equal(again) {
		t.Fatalf("cached load: %v", err)
	}
	if !s.Has(m.ID) {
		t.Error("Has(id) = false for stored dataset")
	}

	got, err := s.Meta(m.ID)
	if err != nil || got.ID != m.ID {
		t.Fatalf("Meta: %v, %+v", err, got)
	}

	list, err := s.List()
	if err != nil || len(list) != 1 || list[0].ID != m.ID {
		t.Fatalf("List: %v, %+v", err, list)
	}

	var sb strings.Builder
	if err := s.ExportEdgeList(m.ID, &sb); err != nil {
		t.Fatal(err)
	}
	rt, err := graph.ReadEdgeList(strings.NewReader(sb.String()), 0)
	if err != nil || !g.Equal(rt) {
		t.Fatalf("export round trip: %v", err)
	}

	if err := s.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(m.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("load after delete: %v, want ErrNotFound", err)
	}
	if err := s.Delete(m.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v, want ErrNotFound", err)
	}
	if list, _ := s.List(); len(list) != 0 {
		t.Errorf("list after delete: %+v", list)
	}
}

func TestStoreIdempotentImport(t *testing.T) {
	s := testStore(t)
	g := sampleGraph(t, 5)
	m1, _, err := s.Put(g, "first", "snap")
	if err != nil {
		t.Fatal(err)
	}
	// Re-importing identical content is a no-op: same id, the original
	// metadata (name, import time) is kept.
	m2, created, err := s.Put(g, "renamed", "mtx")
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Error("re-import reported created = true")
	}
	if m2 != m1 {
		t.Errorf("re-import changed metadata: %+v != %+v", m2, m1)
	}
	if list, _ := s.List(); len(list) != 1 {
		t.Errorf("re-import duplicated the dataset: %d entries", len(list))
	}
}

func TestStoreUnknownAndMalformedIDs(t *testing.T) {
	s := testStore(t)
	for _, id := range []string{
		"ds-0000000000000000", // well-formed but absent
		"../../etc/passwd",    // traversal attempt
		"ds-..%2f..%2fpasswd", // traversal attempt
		"ds-ABCDEF0123456789", // uppercase hex is not produced
		"ds-123",              // wrong length
		"mygraph",             // ledger-style free-form name
		"ds-zzzzzzzzzzzzzzzz", // non-hex
		"ds-0000000000000000/../x",
	} {
		if _, err := s.Load(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Load(%q): %v, want ErrNotFound", id, err)
		}
		if _, err := s.Meta(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Meta(%q): %v, want ErrNotFound", id, err)
		}
		if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete(%q): %v, want ErrNotFound", id, err)
		}
		if s.Has(id) {
			t.Errorf("Has(%q) = true", id)
		}
	}
}

// TestStoreRejectsCorruptFile: damage to a stored graph file surfaces
// on the next uncached load as a typed error, not a wrong graph. A
// legacy v1 file is checksummed whole on every load, so a flip
// anywhere is caught. A v2 file is mapped after O(1) validation, so
// Load catches damage to its header, its length and its offset anchors
// (TestV2HostileInputs covers each), but not a flip inside the
// adjacency: that trade is the layout's (see codecv2.go).
func TestStoreRejectsCorruptFile(t *testing.T) {
	for _, layout := range []string{"v1", "v2"} {
		s := testStore(t)
		g := sampleGraph(t, 7)
		var id string
		if layout == "v1" {
			id = putLegacyV1(t, s, g, marshalV1(g))
		} else {
			m, _, err := s.Put(g, "x", "generated")
			if err != nil {
				t.Fatal(err)
			}
			id = m.ID
		}
		path := filepath.Join(s.Dir(), id+graphExt)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flip := len(data) / 2
		if layout == "v2" {
			flip = 8 // the node count, under the header's own checksum
		}
		data[flip] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(s.Dir()) // fresh handle: empty cache
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Load(id); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: load of corrupt file: %v, want ErrChecksum", layout, err)
		}
		// Truncation is likewise typed.
		if err := os.WriteFile(path, data[:10], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Load(id); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: load of truncated file: %v, want ErrTruncated/ErrChecksum", layout, err)
		}
	}
}

func TestStoreListSkipsCorruptSidecar(t *testing.T) {
	s := testStore(t)
	healthy, _, err := s.Put(sampleGraph(t, 7), "healthy", "generated")
	if err != nil {
		t.Fatal(err)
	}
	damaged, _, err := s.Put(sampleGraph(t, 8), "damaged", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), damaged.ID+metaExt), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// One damaged sidecar must not hide the healthy dataset.
	list, err := s.List()
	if err != nil {
		t.Fatalf("list with corrupt sidecar: %v", err)
	}
	if len(list) != 1 || list[0].ID != healthy.ID {
		t.Errorf("list = %v, want just %s", list, healthy.ID)
	}
}

// TestStoreConcurrentUse hammers one directory from many goroutines —
// imports, loads, lists, deletes — which the -race build checks for
// cache races and the flock bracket keeps structurally safe.
func TestStoreConcurrentUse(t *testing.T) {
	s := testStore(t)
	graphs := make([]*graph.Graph, 6)
	for i := range graphs {
		graphs[i] = sampleGraph(t, uint64(i+1))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, g := range graphs {
				m, _, err := s.Put(g, "g", "generated")
				if err != nil {
					t.Errorf("worker %d: put %d: %v", w, i, err)
					return
				}
				back, err := s.Load(m.ID)
				if err != nil {
					t.Errorf("worker %d: load %d: %v", w, i, err)
					return
				}
				if !g.Equal(back) {
					t.Errorf("worker %d: graph %d corrupted", w, i)
					return
				}
				if _, err := s.List(); err != nil {
					t.Errorf("worker %d: list: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	list, err := s.List()
	if err != nil || len(list) != len(graphs) {
		t.Fatalf("final list: %v, %d entries want %d", err, len(list), len(graphs))
	}
}

// TestStoreCrossHandle simulates two processes sharing one directory:
// a dataset imported through one handle is visible through the other
// without any shared memory.
func TestStoreCrossHandle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shared")
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := sampleGraph(t, 11)
	m, _, err := s1.Put(g, "shared", "generated")
	if err != nil {
		t.Fatal(err)
	}
	back, err := s2.Load(m.ID)
	if err != nil || !g.Equal(back) {
		t.Fatalf("second handle load: %v", err)
	}
	if err := s2.Delete(m.ID); err != nil {
		t.Fatal(err)
	}
	// The first handle must notice the deletion despite its warm cache.
	if _, err := s1.Load(m.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("first handle load after cross-process delete: %v, want ErrNotFound", err)
	}
}

func TestStoreImportReader(t *testing.T) {
	s := testStore(t)
	g := sampleGraph(t, 13)
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	m, err := s.ImportReader(bytes.NewReader(text.Bytes()), "from-text", DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != string(FormatSNAP) {
		t.Errorf("source = %q, want snap", m.Source)
	}
	if m.ID != accountant.DatasetID(g) {
		t.Errorf("text import id %s != fingerprint %s", m.ID, accountant.DatasetID(g))
	}
	back, err := s.Load(m.ID)
	if err != nil || !g.Equal(back) {
		t.Fatalf("imported graph differs: %v", err)
	}
}

// TestStorePutHealsHalfDeletedDataset: a crash between Delete's two
// removes can leave a metadata sidecar without its graph file; the
// next import of the same bytes must rewrite both, not no-op on the
// stale metadata.
func TestStorePutHealsHalfDeletedDataset(t *testing.T) {
	s := testStore(t)
	g := sampleGraph(t, 17)
	m, _, err := s.Put(g, "half", "generated")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash artifact: graph gone, metadata orphaned.
	if err := os.Remove(filepath.Join(s.Dir(), m.ID+graphExt)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir()) // fresh handle: no warm cache
	if err != nil {
		t.Fatal(err)
	}
	m2, created, err := s2.Put(g, "half", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("re-import over an orphaned sidecar reported created = false")
	}
	back, err := s2.Load(m2.ID)
	if err != nil || !g.Equal(back) {
		t.Fatalf("healed dataset does not load: %v", err)
	}
}
