package sram

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"invisiblebits/internal/rng"
)

// TestMismatchPlaneDigests pins the synthesized mismatch plane (each
// cell's Bias on a fresh array, float64 bits, little endian, cell order)
// for DefaultSpec and the SRAM geometries of three catalog boards. The
// digests were computed with the two-pass synthesis that evaluated the
// smooth across-die field once for its mean and again per cell, so they
// prove the one-pass synthesis bit-identical. Catalog boards are built
// here as device.New does: a near-square power-of-two layout, the
// model's mismatch sigma, and a seed hashed from "model/serial".
func TestMismatchPlaneDigests(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		sigma      float64
		seed       uint64
		digest     string
	}{
		{"default", 512, 1024, 30, 0x1, "db96bb566bb3783e79a50c76aad4e669a42096eb753bb047996bb59b681ae827"},
		{"default", 512, 1024, 30, 0x2, "453c770a3220fa6e3272c3a3c7cfc89ab8dfef9edbd078e037ef2a0efaf782ff"},
		{"default", 512, 1024, 30, 0x5eed, "4ece819f1a6f00c03cc4e0acc86c58c2c9137db32440395a91a1241671900f9d"},
		{"MSP430G2553/sn-0001", 64, 64, 30, 0, "60ad172c42243d682da066edb3b8d0f4db8bc45c6b825886aecaa58547c8183a"},
		{"MSP430G2553/sn-0002", 64, 64, 30, 0, "e73b882105f8e896b620f9e57f944820ce68c76d4673b4be72095ab7b0bc8166"},
		{"ATSAML11E16A/sn-0001", 256, 512, 28, 0, "a89f52763ab38c5759887f3fc883664084bf408b5fd59c15f771851af8569a81"},
		{"ATSAML11E16A/sn-0002", 256, 512, 28, 0, "9492264335bce6322e734b1cdceebd753be5fdd11ec814c7dc07e843674df93a"},
		{"MSP432P401/sn-0001", 512, 1024, 30, 0, "ac677e5c963bce6f04ad265bbd775db2bffa01d8b86103451e470ee1f45ea967"},
		{"MSP432P401/sn-0002", 512, 1024, 30, 0, "212efc66d17920ed9d69316e610bb44ef58445e437a2f5fcec285df0b7f96969"},
	}
	for _, c := range cases {
		spec := DefaultSpec()
		spec.Rows, spec.Cols = c.rows, c.cols
		spec.MismatchSigmaMv = c.sigma
		spec.Seed = c.seed
		if c.seed == 0 {
			spec.Seed = rng.HashString(c.name)
		}
		a, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for i := 0; i < a.Cells(); i++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.Bias(i)))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
			t.Errorf("%s seed %#x: mismatch plane digest %s, want %s", c.name, spec.Seed, got, c.digest)
		}
		// New borrows t0Ref as synthesis scratch; a fresh array's
		// equivalent stress times must still read zero shift.
		for i, v := range a.t0Ref {
			if v != 0 {
				t.Fatalf("%s: t0Ref[%d] = %v after New, want 0", c.name, i, v)
			}
		}
	}
}
