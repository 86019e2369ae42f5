package journal

import (
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/frame"
)

// fuzzSeedJournal builds a real three-record journal to derive the
// seed corpus from.
func fuzzSeedJournal(f *testing.F) []byte {
	f.Helper()
	dir, err := os.MkdirTemp("", "journal-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "jobs.journal")
	j, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		admissionRecord("job-1"),
		{Job: "job-1", State: StateDebited},
		{Job: "job-1", State: StateDone},
	} {
		if err := j.Append(rec, true); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDecode holds the decoder to its contract on arbitrary input: it
// never panics, a non-nil error is always ErrCorrupt-typed interior
// damage, validLen stays within bounds, and — the property recovery
// depends on — the declared valid prefix re-decodes to exactly the
// same records with no error and no leftover.
func FuzzDecode(f *testing.F) {
	valid := fuzzSeedJournal(f)
	f.Add(valid)
	// Torn tail: a crash mid-append chops the final frame.
	f.Add(valid[:len(valid)-9])
	f.Add(valid[:len(valid)/2])
	// Bit flip in an interior record.
	flipped := append([]byte(nil), valid...)
	flipped[frame.HeaderLen+6] ^= 0x10
	f.Add(flipped)
	// Duplicated transition: replay the last frame twice (breaks the
	// sequence monotonicity check).
	f.Add(append(append([]byte(nil), valid...), valid[len(valid)-40:]...))
	// Header variants.
	f.Add([]byte{})
	f.Add([]byte("DPK"))
	f.Add([]byte("DPKJ\x02"))
	f.Add([]byte("DPKJ\x03"))
	// A version 1 journal: the same frames after a 5-byte header.
	f.Add(append([]byte("DPKJ\x01"), valid[frame.HeaderLen:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, validLen, err := Decode(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of [0, %d]", validLen, len(data))
		}
		if err != nil {
			return
		}
		var lastSeq uint64
		for _, rec := range records {
			if rec.Seq <= lastSeq {
				t.Fatalf("accepted non-increasing sequence %d after %d", rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
		}
		// Idempotence on the valid prefix: what Decode blessed must
		// re-decode identically, fully consumed — this is the prefix the
		// journal truncates to and appends after.
		again, againLen, err2 := Decode(data[:validLen])
		if err2 != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err2)
		}
		if againLen != validLen {
			t.Fatalf("valid prefix re-decoded to length %d, want %d", againLen, validLen)
		}
		if len(again) != len(records) {
			t.Fatalf("valid prefix re-decoded to %d records, want %d", len(again), len(records))
		}
	})
}
