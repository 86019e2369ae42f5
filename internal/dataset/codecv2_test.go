package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dpkron/internal/mmapfile"
)

// TestV2RoundTrip: every codec test graph survives the v2 layout, both
// through the verifying byte-slice decode and through OpenMapped.
func TestV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, g := range testGraphs(t) {
		data := marshalV2(g)
		if v, err := Version(data); err != nil || v != 2 {
			t.Fatalf("%s: Version = %d, %v", name, v, err)
		}
		back, err := Unmarshal(data) // auto-dispatch by version
		if err != nil {
			t.Errorf("%s: v2 decode failed: %v", name, err)
			continue
		}
		if !g.Equal(back) {
			t.Errorf("%s: v2 round trip changed the graph", name)
		}
		path := filepath.Join(dir, name+".dpkg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mg, mapped, err := OpenMapped(path)
		if err != nil {
			t.Errorf("%s: OpenMapped failed: %v", name, err)
			continue
		}
		if mmapfile.Supported && len(data) > 0 && !mapped {
			t.Errorf("%s: expected a zero-copy mapping on this platform", name)
		}
		if !g.Equal(mg) {
			t.Errorf("%s: mapped graph differs from original", name)
		}
	}
}

// TestV2CrossVersion: the two layouts are pure re-encodings — decoding
// either yields the identical graph, and re-encoding back is
// deterministic byte for byte.
func TestV2CrossVersion(t *testing.T) {
	for name, g := range testGraphs(t) {
		v1, v2 := marshalV1(g), marshalV2(g)
		g1, err := Unmarshal(v1)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := Unmarshal(v2)
		if err != nil {
			t.Fatal(err)
		}
		if !g1.Equal(g2) {
			t.Errorf("%s: v1 and v2 decodes differ", name)
		}
		if !bytes.Equal(marshalV2(g1), v2) {
			t.Errorf("%s: v1 -> v2 transcode is not deterministic", name)
		}
		if !bytes.Equal(marshalV1(g2), v1) {
			t.Errorf("%s: v2 -> v1 transcode is not deterministic", name)
		}
	}
}

// TestV2HostileInputs drives the v2 parser with damaged files: every
// mutation must fail with a typed error — never a panic, and via
// OpenMapped never a SIGBUS from trusting a forged header.
func TestV2HostileInputs(t *testing.T) {
	g := testGraphs(t)["skg-k10"]
	good := marshalV2(g)
	dir := t.TempDir()

	// check runs a mutated file through both decode entries.
	check := func(t *testing.T, data []byte, want ...error) {
		t.Helper()
		_, err := Unmarshal(data)
		if err == nil {
			t.Fatal("hostile v2 input decoded successfully")
		}
		typed := false
		for _, w := range want {
			if errors.Is(err, w) {
				typed = true
			}
		}
		if !typed {
			t.Fatalf("Unmarshal: untyped error %v", err)
		}
		path := filepath.Join(dir, "hostile.dpkg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenMapped(path); err == nil {
			t.Fatal("hostile v2 input mapped successfully")
		}
	}

	t.Run("truncation", func(t *testing.T) {
		// Cut at every structural boundary plus a byte to either side.
		adjPos, _ := v2Layout(g.NumNodes(), g.NumEdges())
		cuts := []int{0, 3, 4, 5, 47, 48, 55, 63, 64, 65, int(adjPos) - 1, int(adjPos), len(good) - 33, len(good) - 1}
		for _, cut := range cuts {
			if cut < 0 || cut >= len(good) {
				continue
			}
			check(t, good[:cut], ErrTruncated, ErrChecksum, ErrBadMagic)
		}
	})

	t.Run("header-field-flips", func(t *testing.T) {
		// Any header byte flip trips the header's own checksum before the
		// forged field can drive slice arithmetic.
		for _, off := range []int{8, 16, 24, 32, 40} {
			bad := bytes.Clone(good)
			bad[off] ^= 0xff
			check(t, bad, ErrChecksum)
		}
	})

	t.Run("forged-header-checksum", func(t *testing.T) {
		// Re-sign a corrupted adjPos: now the header checksum passes and
		// the layout arithmetic itself must reject it.
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[32:], uint64(len(bad))) // adj "starts" at EOF
		resignV2Body(bad)
		check(t, bad, ErrCorrupt)
	})

	t.Run("forged-dimensions", func(t *testing.T) {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[8:], 1<<40) // absurd node count
		resignV2Body(bad)
		check(t, bad, ErrCorrupt)
	})

	t.Run("off-spot-check", func(t *testing.T) {
		// Corrupt off[0] and off[n] behind a fully re-signed file: the
		// O(1) spot checks are all the mmap path has, so they must fire.
		for _, field := range []int{v2HeaderLen, v2HeaderLen + 4*g.NumNodes()} {
			bad := bytes.Clone(good)
			binary.LittleEndian.PutUint32(bad[field:], 0xdeadbeef)
			resignV2Body(bad)
			check(t, bad, ErrCorrupt)
		}
	})

	t.Run("body-flip", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[len(bad)/2] ^= 0x10
		check(t, bad, ErrChecksum)
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		check(t, append(bytes.Clone(good), 0), ErrChecksum, ErrCorrupt)
	})
}

// resignV2 recomputes the header checksum field after a header
// mutation (an attacker can always do this; the layout checks must not
// rely on the header hash alone).
func resignV2(data []byte) {
	sum := sha256.Sum256(data[:48])
	copy(data[48:56], sum[:8])
}

// resignV2Body additionally recomputes the trailing whole-file
// checksum so byte-slice decodes reach the structural validation.
func resignV2Body(data []byte) {
	resignV2(data)
	sum := sha256.Sum256(data[:len(data)-checksumLen])
	copy(data[len(data)-checksumLen:], sum[:])
}
