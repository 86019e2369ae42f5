package dataset

import (
	"errors"
	"path/filepath"
	"testing"

	"dpkron/internal/faultfs"
)

// TestStorePutInjectedFaults fails each point of Put's two atomic
// writes (graph payload, then metadata sidecar) and asserts a failed
// import is reported and never half-visible: the id either resolves to
// the complete graph or to ErrNotFound, no temporary file is left, and
// a retry after the fault clears succeeds.
func TestStorePutInjectedFaults(t *testing.T) {
	faults := []struct {
		name  string
		fault faultfs.Fault
	}{
		{"graph-open", faultfs.Fault{Op: faultfs.OpOpen, Path: ".dpkg.tmp"}},
		{"graph-short-write", faultfs.Fault{Op: faultfs.OpWrite, Path: ".dpkg.tmp", Short: 12}},
		{"graph-sync", faultfs.Fault{Op: faultfs.OpSync, Path: ".dpkg.tmp"}},
		{"graph-rename", faultfs.Fault{Op: faultfs.OpRename, Path: ".dpkg.tmp"}},
		{"meta-short-write", faultfs.Fault{Op: faultfs.OpWrite, Path: ".json.tmp", Short: 5}},
		{"meta-rename", faultfs.Fault{Op: faultfs.OpRename, Path: ".json.tmp"}},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			dir := filepath.Join(t.TempDir(), "store")
			s, err := OpenFS(inj, dir)
			if err != nil {
				t.Fatal(err)
			}
			g := sampleGraph(t, 7)
			inj.Fail(tc.fault)
			if _, _, err := s.Put(g, "toy", "generated"); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Put under %s fault: %v, want ErrInjected", tc.name, err)
			}
			assertNoTmp(t, dir)
			// Retry with the fault cleared: the import completes and the
			// graph round-trips.
			m, _, err := s.Put(g, "toy", "generated")
			if err != nil {
				t.Fatalf("Put after %s fault cleared: %v", tc.name, err)
			}
			fresh, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Load(m.ID)
			if err != nil {
				t.Fatalf("Load after recovered import: %v", err)
			}
			if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
				t.Fatalf("recovered graph %d/%d, want %d/%d",
					got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
			}
		})
	}
}
