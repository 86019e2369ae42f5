package release

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/faultfs"
)

// TestCachePutInjectedFaults drives Put through every fault point of
// its tmp + fsync + rename path. The invariant: a failed Put reports
// the error and leaves no entry — neither a hit in this process nor a
// readable file for a fresh cache — and the cache keeps working once
// the fault clears.
func TestCachePutInjectedFaults(t *testing.T) {
	faults := []faultfs.Fault{
		{Op: faultfs.OpOpen, Path: ".json.tmp"},
		{Op: faultfs.OpWrite, Path: ".json.tmp", Short: 9},
		{Op: faultfs.OpSync, Path: ".json.tmp"},
		{Op: faultfs.OpRename, Path: ".json.tmp"},
	}
	for _, fault := range faults {
		t.Run(string(fault.Op), func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS)
			dir := filepath.Join(t.TempDir(), "cache")
			c, err := OpenFS(inj, dir)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(t)
			inj.Fail(fault)
			if _, err := c.Put(key, testPayload{Initiator: []float64{0.9, 0.6, 0.6, 0.2}}); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Put under %s fault: %v, want ErrInjected", fault.Op, err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("failed Put left a hit in the same process")
			}
			fresh, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := fresh.Get(key); ok {
				t.Fatalf("failed Put under %s fault reached disk", fault.Op)
			}
			if _, err := c.Put(key, testPayload{Initiator: []float64{0.9, 0.6, 0.6, 0.2}}); err != nil {
				t.Fatalf("Put after fault cleared: %v", err)
			}
			if _, ok := fresh.Get(key); !ok {
				t.Fatal("entry not visible after the fault cleared")
			}
		})
	}
}

// TestCacheTornEntryCountsAsMiss: an entry file holding only the first
// bytes of an entry — what a crash mid-write leaves where the write is
// not staged through a tmp file — must read as a miss, not a served
// half-release.
func TestCacheTornEntryCountsAsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t)
	if _, err := c.Put(key, testPayload{Initiator: []float64{0.9, 0.6, 0.6, 0.2}}); err != nil {
		t.Fatal(err)
	}
	path := c.entryPath(key.Fingerprint())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); ok {
		t.Fatal("torn entry served as a hit")
	}
}
