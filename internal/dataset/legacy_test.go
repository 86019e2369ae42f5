package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/accountant"
	"dpkron/internal/graph"
	"dpkron/internal/obs"
)

// legacyFixture is the fingerprint graph (testGraphs "skg-k10") as the
// DPKG v1 file an older binary's store wrote: 5,558 bytes, against
// 34,320 for the same graph in v2.
const legacyFixture = "../../testdata/fp_k10.v1.dpkg"

// marshalV1 is the DPKG v1 encoder the store used before v2 became the
// only layout it writes. The tests keep it to make the legacy files the
// read-only decoder must still accept; TestLegacyV1Store pins its
// output to legacyFixture.
func marshalV1(g *graph.Graph) []byte {
	n := g.NumNodes()
	buf := append([]byte(nil), magic[:]...)
	buf = binary.AppendUvarint(buf, codecVersion)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(g.NumEdges()))
	for u := 0; u < n; u++ {
		upper := g.Neighbors(u)
		for len(upper) > 0 && int(upper[0]) <= u {
			upper = upper[1:]
		}
		buf = binary.AppendUvarint(buf, uint64(len(upper)))
		prev := u
		for _, w := range upper {
			buf = binary.AppendUvarint(buf, uint64(int(w)-prev-1))
			prev = int(w)
		}
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// marshalV2 renders g in the v2 layout in memory.
func marshalV2(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := EncodeV2(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// putLegacyV1 stores g the way an older binary did: the v1 file data
// and a sidecar from before metadata had a format field. It returns
// the dataset id.
func putLegacyV1(tb testing.TB, s *Store, g *graph.Graph, data []byte) string {
	tb.Helper()
	id := accountant.DatasetID(g)
	sidecar := fmt.Sprintf(`{"id": %q, "name": "legacy", "nodes": %d, "edges": %d, "source": "snap", "imported": "2024-01-02T03:04:05Z", "bytes": %d}`+"\n",
		id, g.NumNodes(), g.NumEdges(), len(data))
	if err := os.WriteFile(s.graphPath(id), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(s.metaPath(id), []byte(sidecar), 0o644); err != nil {
		tb.Fatal(err)
	}
	return id
}

// assertNoTmp fails if a temporary file of an atomic write is left in
// dir.
func assertNoTmp(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Errorf("temporary files left behind: %v", tmps)
	}
}

// TestLegacyV1Store: a store directory an older binary left behind —
// the checked-in v1 file and a sidecar without a format key — keeps
// working. It loads through the verifying v1 decode, FileInfo reports
// it as v1 and unmapped, a Put of the same graph leaves it in place,
// and List, ExportEdgeList and Delete still serve it.
func TestLegacyV1Store(t *testing.T) {
	g := testGraphs(t)["skg-k10"]
	fixture, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalV1(g), fixture) {
		t.Fatal("the test v1 encoder does not reproduce the file an older binary wrote")
	}
	s := testStore(t)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	id := putLegacyV1(t, s, g, fixture)

	got, err := s.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got) {
		t.Fatal("legacy v1 load differs from the graph")
	}
	if n := s.met.loads.With(loadRouteV1).Value(); n != 1 {
		t.Errorf("%d loads by the %s route, want 1", n, loadRouteV1)
	}
	fi, err := s.FileInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if fi != (FileInfo{Format: 1, Bytes: int64(len(fixture)), Mmap: false}) {
		t.Errorf("FileInfo = %+v, want v1, %d bytes, no mmap", fi, len(fixture))
	}

	m, created, err := s.Put(g, "again", "generated")
	if err != nil {
		t.Fatal(err)
	}
	if created || m.ID != id || m.Name != "legacy" || m.Format != 0 {
		t.Errorf("Put over a legacy dataset: created=%v meta=%+v, want the stored sidecar", created, m)
	}
	if onDisk, err := os.ReadFile(s.graphPath(id)); err != nil || !bytes.Equal(onDisk, fixture) {
		t.Errorf("Put rewrote the legacy file (err %v)", err)
	}

	list, err := s.List()
	if err != nil || len(list) != 1 || list[0].ID != id || list[0].Edges != g.NumEdges() {
		t.Fatalf("List = %+v, %v", list, err)
	}
	var text bytes.Buffer
	if err := s.ExportEdgeList(id, &text); err != nil {
		t.Fatal(err)
	}
	if back, err := graph.ReadEdgeList(&text, 0); err != nil || !g.Equal(back) {
		t.Fatalf("exported edge list does not parse back to the graph: %v", err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if s.Has(id) {
		t.Error("Has after Delete")
	}
	if left, _ := filepath.Glob(filepath.Join(s.Dir(), id+"*")); len(left) != 0 {
		t.Errorf("Delete left %v", left)
	}
}
