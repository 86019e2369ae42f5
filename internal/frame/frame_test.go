package frame

import (
	"errors"
	"testing"
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
