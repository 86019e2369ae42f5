package frame

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dpkron/internal/faultfs"
)

var errTest = errors.New("test: corrupt")

// decodeAll returns the payloads Decode accepts from data.
func decodeAll(data []byte) ([]string, int64, error) {
	var got []string
	end, err := Decode(data, 0, 1<<10, errTest, func(_ int64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return got, end, err
}

// TestDecodeTornAndCorrupt: every strict prefix of a log decodes to the
// frames wholly inside it with no error, and a flipped payload or
// checksum byte in a frame followed by whole frames is corruption.
func TestDecodeTornAndCorrupt(t *testing.T) {
	payloads := []string{`{"a":1}`, "", `{"b":"two"}`}
	var data []byte
	var ends []int64
	for _, p := range payloads {
		data = Append(data, []byte(p))
		ends = append(ends, int64(len(data)))
	}
	for n := 0; n <= len(data); n++ {
		got, end, err := decodeAll(data[:n])
		whole := 0
		for whole < len(ends) && ends[whole] <= int64(n) {
			whole++
		}
		if err != nil || len(got) != whole || (whole > 0 && end != ends[whole-1]) || (whole == 0 && end != 0) {
			t.Fatalf("prefix %d: %d frames to %d, err %v; want %d", n, len(got), end, err, whole)
		}
	}
	// Byte 0 is the first frame's one-byte length; every later byte of
	// it is payload or checksum, and a flip there is damage.
	for i := 1; i < int(ends[0]); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, end, err := decodeAll(bad); !errors.Is(err, errTest) || end != 0 {
			t.Fatalf("flip at %d: end %d, err %v; want corruption at 0", i, end, err)
		}
	}
}

// TestLogSharedFile drives two Logs on one file, as two ledger
// handles do: each Read decodes only the frames the other appended
// since, a Rewrite makes the other reset and read the file whole, a
// torn tail is left out and cut by the next Append, and an older format
// is converted once.
func TestLogSharedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	format := Format{Magic: "TEST\x01", What: "test log", MaxLen: 1 << 10, Corrupt: errTest}
	type reader struct {
		log    *Log
		got    []string
		resets int
	}
	read := func(r *reader) {
		t.Helper()
		if err := r.log.Read(func() { r.got = nil; r.resets++ }, func(_ int64, p []byte) error {
			r.got = append(r.got, string(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	a := &reader{log: NewLog(faultfs.OS, path, format, false)}
	b := &reader{log: NewLog(faultfs.OS, path, format, false)}
	read(a)
	for _, p := range []string{"one", "two"} {
		if err := a.log.Append([]byte(p), true); err != nil {
			t.Fatal(err)
		}
	}
	read(b)
	if err := a.log.Append([]byte("three"), false); err != nil {
		t.Fatal(err)
	}
	read(b)
	if want := []string{"one", "two", "three"}; !slices.Equal(b.got, want) || b.resets != 1 {
		t.Fatalf("incremental reads: %q after %d resets, want %q after 1", b.got, b.resets, want)
	}
	// A torn frame is left out, then cut by the next Append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(Append(nil, []byte("torn"))[:3])
	f.Close()
	read(b)
	if err := b.log.Append([]byte("four"), true); err != nil {
		t.Fatal(err)
	}
	read(a) // a folded its own appends: it reads only b's
	if !slices.Equal(a.got, []string{"four"}) || a.resets != 1 {
		t.Fatalf("after a torn tail: %q after %d resets, want [four] after 1", a.got, a.resets)
	}
	// A rewrite draws a new file id: the other Log starts over.
	if err := a.log.Rewrite(Append(nil, []byte("five"))); err != nil {
		t.Fatal(err)
	}
	read(b)
	if !slices.Equal(b.got, []string{"five"}) || b.resets != 2 {
		t.Fatalf("after a rewrite: %q after %d resets", b.got, b.resets)
	}
	// A file in an older format is converted, once; without Convert it
	// is corrupt.
	if err := os.WriteFile(path, []byte("old:six"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.log.Read(func() {}, func(int64, []byte) error { return nil }); !errors.Is(err, errTest) {
		t.Fatalf("foreign header without Convert: %v, want corruption", err)
	}
	// So is a file cut short inside the header: it is only written whole.
	for _, short := range []string{"", "TES", format.Magic} {
		if err := os.WriteFile(path, []byte(short), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := b.log.Read(func() {}, func(int64, []byte) error { return nil }); !errors.Is(err, errTest) {
			t.Fatalf("%d-byte file: %v, want corruption", len(short), err)
		}
	}
	if err := os.WriteFile(path, []byte("old:six"), 0o644); err != nil {
		t.Fatal(err)
	}
	format.Convert = func(data []byte) ([]byte, error) { return Append(nil, data[4:]), nil }
	c := &reader{log: NewLog(faultfs.OS, path, format, false)}
	read(c)
	if data, err := os.ReadFile(path); err != nil || !slices.Equal(c.got, []string{"six"}) || !bytes.HasPrefix(data, []byte(format.Magic)) {
		t.Fatalf("conversion: %q, file %q (%v)", c.got, data, err)
	}
}
