package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/sram"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
)

const benchSeed = 0xbe2c

// mustArray builds a powered benchmark array of the given size, capture
// width and noise generation. The spec is the runner's own, so a
// failure is a bug.
func mustArray(bytes, workers, noiseGen int) *sram.Array {
	spec := sram.DefaultSpec()
	spec.Rows, spec.Cols, spec.Seed = 256, bytes*8/256, benchSeed
	spec.Workers, spec.NoiseGen = workers, noiseGen
	a, err := sram.New(spec)
	if err == nil {
		_, err = a.PowerOn(25)
	}
	if err != nil {
		panic(err)
	}
	return a
}

func benchPattern(n int) []byte {
	pattern := make([]byte, n)
	for i := range pattern {
		pattern[i] = byte(i*37 + 11)
	}
	return pattern
}

// imprint writes a fixed pattern and soaks it at the encoding condition,
// pushing message cells beyond the pruning bound like a real encode.
func imprint(a *sram.Array, hours float64) error {
	if hours <= 0 {
		return nil
	}
	return a.StressWithPattern(benchPattern(a.Bytes()), a.Spec().Aging.Ref, hours)
}

// captureGate is the gate the SRAM rows rest on. For both noise
// generations, clean and imprinted silicon, remanent and discharged
// entry, the kernel burst at every width must match the serial reference
// bit for bit (votes, data plane, counter); a warm burst at every width
// must allocate nothing; and aging must pass agingGate.
func captureGate(widths []int) error {
	const arrayBytes = 4 << 10
	for _, gen := range []int{sram.NoiseGenBoxMuller, sram.NoiseGenZiggurat} {
		for _, soak := range []float64{0, 10} {
			for _, remanent := range []bool{false, true} {
				burst := func(w int, reference bool) (votes []uint16, data []byte, ctr uint64, err error) {
					a := mustArray(arrayBytes, w, gen)
					if err := imprint(a, soak); err != nil {
						return nil, nil, 0, err
					}
					a.PowerOff(!remanent) // retained charge: capture 1 is free
					if reference {
						votes, err = a.CaptureVotesReference(5, 25)
					} else {
						votes, err = a.CaptureVotes(5, 25)
					}
					if err == nil {
						data, err = a.Read()
					}
					return votes, data, a.PowerOnCount(), err
				}
				wantVotes, wantData, wantCtr, err := burst(1, true)
				if err != nil {
					return err
				}
				for _, w := range widths {
					votes, data, ctr, err := burst(w, false)
					if err != nil {
						return err
					}
					if !slices.Equal(votes, wantVotes) || !bytes.Equal(data, wantData) || ctr != wantCtr {
						return fmt.Errorf("gen=%d soak=%vh rem=%v workers=%d: kernel burst differs from the reference (votes, data plane or counter %d vs %d)",
							gen, soak, remanent, w, ctr, wantCtr)
					}
				}
			}
		}
	}
	for _, w := range widths {
		a := mustArray(arrayBytes, w, sram.NoiseGenZiggurat)
		votes := make([]uint16, a.Cells())
		maj := make([]byte, a.Bytes())
		ctx := context.Background()
		var burstErr error
		if n := testing.AllocsPerRun(20, func() {
			burstErr = errors.Join(a.CaptureVotesInto(ctx, 5, 25, votes), a.CaptureMajorityInto(ctx, 5, 25, maj))
		}); burstErr != nil || n != 0 {
			return fmt.Errorf("workers=%d: warm CaptureVotesInto + CaptureMajorityInto allocate %.1f objects, want 0 (err %v)", w, n, burstErr)
		}
	}
	return agingGate()
}

// agingGate runs a staged stress, shelf and restress through the
// equivalent-time engine and through StressReference (errors are joined
// along the way: any one fails the gate), and requires every cell's
// bias to agree to float rounding.
func agingGate() error {
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	var arrays [2]*sram.Array
	for i, legacy := range []bool{false, true} {
		a := mustArray(4<<10, 0, sram.NoiseGenZiggurat)
		stress := a.Stress
		if legacy {
			stress = a.StressReference
		}
		err := a.Write(benchPattern(a.Bytes()))
		for _, h := range []float64{2, 1, 3} {
			err = errors.Join(err, stress(cond, h))
		}
		a.PowerOff(true)
		err = errors.Join(err, a.Shelve(100))
		_, perr := a.PowerOn(25)
		if err := errors.Join(err, perr, stress(cond, 0.5)); err != nil {
			return err
		}
		arrays[i] = a
	}
	for i := 0; i < arrays[0].Cells(); i++ {
		fb, rb := arrays[0].Bias(i), arrays[1].Bias(i)
		if diff := math.Abs(fb - rb); diff/math.Max(1, math.Abs(rb)) > 1e-5 {
			return fmt.Errorf("stress equivalence: cell %d bias %v vs reference %v", i, fb, rb)
		}
	}
	return nil
}

// decodeCodecs is the benched codec ladder: the bare Hamming code, the
// paper's concatenation (Hamming(7,4) over 7-way repetition), and the
// full interleaved stack the decode-tail headline gate targets.
func decodeCodecs() []ecc.Codec {
	rep7, err := ecc.NewRepetition(7)
	if err != nil {
		panic(err)
	}
	inner := ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep7}
	return []ecc.Codec{ecc.Hamming74{}, inner, ecc.Interleaver{Depth: 8, Next: inner}}
}

// decodeRig encodes a message filling an sramBytes device and samples a
// capture burst, returning everything the tail rows need.
func decodeRig(serial string, sramBytes int, codec ecc.Codec, key *stegocrypt.Key) (*core.Record, []uint16, core.Options, error) {
	opts := core.Options{Codec: codec, Key: key}
	m, err := device.ByName("MSP432P401")
	if err != nil {
		return nil, nil, opts, err
	}
	d, err := device.New(m, serial, device.WithSRAMLimit(sramBytes))
	if err != nil {
		return nil, nil, opts, err
	}
	r := rig.New(d)
	msg := make([]byte, core.MaxMessageBytes(sramBytes, codec))
	rng.NewSource(benchSeed).Bytes(msg)
	rec, err := core.Encode(r, msg, opts)
	if err != nil {
		return nil, nil, opts, err
	}
	votes, err := r.SampleVotes(core.DefaultCaptures)
	return rec, votes, opts, err
}

// decodeGate is the gate the decode rows rest on: the pipeline must match
// ecc.DecodeScalar on clean, corrupted and garbage codewords (erasures
// included) and the arena tail core.DecodeVotesScalar, both allocating
// nothing when warm, and packed Moran's I the expanded oracle.
func decodeGate() error {
	src := rng.NewSource(benchSeed)
	var decodeErr error
	for _, codec := range decodeCodecs() {
		p := ecc.NewPipeline(codec)
		for _, msgBytes := range []int{1, 7, 8, 9, 64, 65, 257} {
			at := fmt.Sprintf("%s/%dB", codec.Name(), msgBytes)
			payload := make([]byte, codec.EncodedLen(msgBytes))
			dst := make([]byte, msgBytes)
			for trial := 0; trial < 6; trial++ {
				if trial < 3 {
					msg := make([]byte, msgBytes)
					src.Bytes(msg)
					coded, err := codec.Encode(msg)
					if err != nil {
						return err
					}
					copy(payload, coded)
					for f := 0; f < trial*len(payload)/4; f++ {
						bit := src.Intn(len(payload) * 8)
						payload[bit/8] ^= 1 << (bit % 8)
					}
				} else {
					src.Bytes(payload)
				}
				want, wantErr := ecc.DecodeScalar(codec, payload, msgBytes)
				got, gotErr := codec.Decode(payload, msgBytes)
				if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
					return fmt.Errorf("%s: Decode diverges from scalar", at)
				}
				if err := p.DecodeInto(dst, payload, msgBytes); err != nil || !bytes.Equal(dst, want) {
					return fmt.Errorf("%s: pipeline diverges from scalar (err %v)", at, err)
				}
				if dec, ok := codec.(ecc.ErasureDecoder); ok {
					mask := make([]bool, len(payload)*8)
					for i := range mask {
						mask[i] = src.Intn(4) == 0
					}
					wm, wu, we := ecc.DecodeErasureScalar(codec, payload, mask, msgBytes)
					gm, gu, ge := dec.DecodeErasure(payload, mask, msgBytes)
					if (ge == nil) != (we == nil) || !bytes.Equal(gm, wm) || !reflect.DeepEqual(gu, wu) {
						return fmt.Errorf("%s: erasure decode diverges from scalar", at)
					}
				}
			}
			if n := testing.AllocsPerRun(20, func() { decodeErr = p.DecodeInto(dst, payload, msgBytes) }); n != 0 {
				return fmt.Errorf("%s: warm pipeline decode allocates %.1f objects/op, want 0", at, n)
			}
		}
	}

	// Core tail, encrypted (HMAC digest) and plain (CRC).
	key := stegocrypt.KeyFromPassphrase("bench7-tail")
	codec := decodeCodecs()[2]
	for _, enc := range []struct {
		name string
		key  *stegocrypt.Key
	}{{"hmac", &key}, {"crc", nil}} {
		rec, votes, opts, err := decodeRig("bench7-eq-"+enc.name, 4<<10, codec, enc.key)
		if err != nil {
			return err
		}
		want, err := core.DecodeVotesScalar(rec, votes, core.DefaultCaptures, opts)
		if err != nil {
			return fmt.Errorf("scalar tail (%s): %w", enc.name, err)
		}
		arena := core.NewDecodeArena()
		for rep := 0; rep < 3; rep++ { // warm reuse must stay identical
			got, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts)
			if err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("arena tail (%s) diverges from scalar tail (err %v)", enc.name, err)
			}
		}
		if n := testing.AllocsPerRun(20, func() {
			_, decodeErr = arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts)
		}); decodeErr != nil || n != 0 {
			return fmt.Errorf("warm arena DecodeVotes (%s) allocates %.1f objects/op, want 0 (err %v)", enc.name, n, decodeErr)
		}
	}

	snap := make([]byte, 8<<10)
	rng.NewSource(benchSeed + 2).Bytes(snap)
	rows, cols := 256, len(snap)*8/256
	want, werr := stats.MoranIBits(expandPlane(snap), rows, cols)
	got, err := stats.MoranIPacked(snap, rows, cols)
	if err := errors.Join(werr, err); err != nil {
		return err
	}
	if rel := math.Abs(got.I-want.I) / math.Max(math.Abs(want.I), 1e-9); rel > 1e-9 {
		return fmt.Errorf("packed Moran I %v vs expanded %v (rel %v)", got.I, want.I, rel)
	}
	return nil
}

func expandPlane(snap []byte) []byte {
	out := make([]byte, len(snap)*8)
	for i := range out {
		if snap[i/8]&(1<<(i%8)) != 0 {
			out[i] = 1
		}
	}
	return out
}
