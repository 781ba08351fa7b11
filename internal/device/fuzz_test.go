package device

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"invisiblebits/internal/sram"
)

// imageV1 mirrors the version-1 wire layout (no RefreshLog field). gob
// matches struct fields by name, so encoding this type produces exactly
// what a pre-ledger build would have written.
type imageV1 struct {
	Version   int
	ModelName string
	Serial    string
	SRAMBytes int
	SRAM      sram.State
	FlashData []byte
}

// imageBytes builds a real device image at the requested version: 1 is
// the pre-ledger layout, 3 the last gob-float pool layout (the image
// struct with its pools in sram.State and no Pools blob), and anything
// else what Save writes today. The SRAM is sampled at 64 bytes so seeds
// stay small enough for mutation to reach every field.
func imageBytes(t testing.TB, version int) []byte {
	t.Helper()
	d := mustDeviceTB(t, "MSP430G2553", "fuzz-seed", WithSRAMLimit(64))
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var err error
	switch version {
	case 1:
		err = gob.NewEncoder(&buf).Encode(imageV1{
			Version:   1,
			ModelName: d.Model.Name,
			Serial:    d.Serial,
			SRAMBytes: d.SRAM.Bytes(),
			SRAM:      d.SRAM.StateSnapshot(),
		})
	case 3:
		err = gob.NewEncoder(&buf).Encode(image{
			Version:   3,
			ModelName: d.Model.Name,
			Serial:    d.Serial,
			SRAMBytes: d.SRAM.Bytes(),
			SRAM:      d.SRAM.StateSnapshot(),
		})
	default:
		err = d.Save(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustDeviceTB(t testing.TB, model, serial string, opts ...Option) *Device {
	t.Helper()
	m, err := ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(m, serial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// imageSeeds returns the seed corpus: genuine v1, v3 and v4 images,
// their truncations and single-byte corruptions (the highest-value
// starting points for gob-stream mutation), and plain garbage. Checked
// in under testdata/fuzz/FuzzImageLoad (regenerate with IB_REGEN_FUZZ=1).
func imageSeeds(t testing.TB) [][]byte {
	v1 := imageBytes(t, 1)
	v3 := imageBytes(t, 3)
	v4 := imageBytes(t, 4)
	flipped := append([]byte(nil), v3...)
	flipped[len(flipped)/3] ^= 0x40
	return [][]byte{
		v1,
		v3,
		v3[:len(v3)/2],
		v3[:7],
		flipped,
		[]byte("not a device image"),
		{},
		v4,
		v4[:len(v4)/2],
	}
}

// FuzzImageLoad hammers the device-image loader with mutated gob
// streams. The contract: Load either returns a working device — whose
// image must survive a re-Save — or an error. Never a panic, regardless
// of what the bytes claim about version, geometry, or flash size.
func FuzzImageLoad(f *testing.F) {
	for _, seed := range imageSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that succeeds must hand back a coherent device.
		if d.SRAM == nil || d.SRAM.Bytes() <= 0 {
			t.Fatal("Load returned a device with no SRAM")
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("re-save of loaded image failed: %v", err)
		}
	})
}

// TestLoadV1Image pins backward compatibility outside the fuzzer: a
// version-1 stream (no RefreshLog) loads, reports an empty ledger, and
// reproduces the saved silicon.
func TestLoadV1Image(t *testing.T) {
	d, err := Load(bytes.NewReader(imageBytes(t, 1)))
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if d.Model.Name != "MSP430G2553" || d.Serial != "fuzz-seed" {
		t.Fatalf("identity lost: %s/%s", d.Model.Name, d.Serial)
	}
	if len(d.RefreshLog()) != 0 {
		t.Fatalf("v1 image produced %d ledger entries", len(d.RefreshLog()))
	}
}

// TestLoadV4Malformed: a v4 stream cut anywhere reports
// ErrTruncatedImage, and a complete v4 stream whose pools blob does not
// hold six float32 pools of the SRAM's size is rejected with
// sram.ErrStateMismatch — never a panic, never a half-restored device.
func TestLoadV4Malformed(t *testing.T) {
	v4 := imageBytes(t, 4)
	var img image
	if err := gob.NewDecoder(bytes.NewReader(v4)).Decode(&img); err != nil {
		t.Fatal(err)
	}
	if img.Version != 4 || len(img.Pools) != sram.PoolsBytes(8*img.SRAMBytes) || img.SRAM.S0Perm != nil {
		t.Fatalf("Save wrote version %d, %d-byte pools, slice pools %v",
			img.Version, len(img.Pools), img.SRAM.S0Perm != nil)
	}
	withPools := func(pools []byte) []byte {
		bad := img
		bad.Pools = pools
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"cut in header", v4[:7], ErrTruncatedImage},
		{"cut in pools", v4[:len(v4)-len(img.FlashData)-len(img.Pools)/2], ErrTruncatedImage},
		{"cut in flash", v4[:len(v4)-len(img.FlashData)/2], ErrTruncatedImage},
		{"last byte missing", v4[:len(v4)-1], ErrTruncatedImage},
		{"no pools", withPools(nil), sram.ErrStateMismatch},
		{"pools short a value", withPools(img.Pools[:len(img.Pools)-4]), sram.ErrStateMismatch},
		{"pools odd length", withPools(img.Pools[:len(img.Pools)-1]), sram.ErrStateMismatch},
		{"pools too long", withPools(append(append([]byte(nil), img.Pools...), 0, 0, 0, 0)), sram.ErrStateMismatch},
	}
	for _, c := range cases {
		d, err := Load(bytes.NewReader(c.data))
		if !errors.Is(err, c.want) || d != nil {
			t.Errorf("%s: Load = (%v, %v), want %v", c.name, d != nil, err, c.want)
		}
	}
}

// TestRegenFuzzCorpus rewrites the checked-in seed corpus from
// imageSeeds. Gated so normal runs never touch testdata; run with
// IB_REGEN_FUZZ=1 after changing the image format or seed set.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("IB_REGEN_FUZZ") == "" {
		t.Skip("set IB_REGEN_FUZZ=1 to regenerate testdata/fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzImageLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range imageSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
