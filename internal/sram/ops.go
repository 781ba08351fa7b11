package sram

import (
	"context"
	"errors"
	"fmt"
	"math"

	"invisiblebits/internal/analog"
)

// noiseSigmaAt scales the per-power-on thermal noise to tempC (√T law).
func (a *Array) noiseSigmaAt(tempC float64) float64 {
	return a.spec.NoiseSigmaMv *
		math.Sqrt((tempC+273.15)/(a.spec.NoiseTempRefC+273.15))
}

// Errors returned by digital and power operations.
var (
	ErrUnpowered = errors.New("sram: operation requires power")
	ErrPowered   = errors.New("sram: array already powered")
)

// PowerOn applies the supply ramp at temperature tempC and resolves every
// cell's power-on race. It returns a copy of the resulting state (which
// also becomes the array's digital contents, exactly as on real hardware
// where "SRAM embedded within the device retains its power-on state until
// software overwrites it", §2).
//
// PowerOn on an already-powered array is an error: real hardware cannot
// re-run the race without dropping the supply first.
func (a *Array) PowerOn(tempC float64) ([]byte, error) {
	return a.PowerOnContext(context.Background(), tempC)
}

// PowerOnContext is PowerOn with cancellation: the race checks ctx
// between dispatched chunks, so a fleet sweep can abandon a fingerprint
// read mid-race. On cancellation the data plane is partially written and
// the array is left unpowered; the consumed power-on counter is not
// rewound (matching captureBurst), so the next power-on runs a fresh,
// fully clean race.
func (a *Array) PowerOnContext(ctx context.Context, tempC float64) ([]byte, error) {
	if a.powered {
		return nil, ErrPowered
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a.remanent {
		// Remanence: the nodes never discharged, so the previous contents
		// survive the power cycle and no race is run.
		a.remanent = false
		a.powered = true
		out := make([]byte, len(a.data))
		copy(out, a.data)
		return out, nil
	}
	// A power-on is a one-capture burst through the word-parallel kernel:
	// deterministic cells resolve by plane, noisy cells by one packed
	// race, consuming exactly one counter. Identical for any worker
	// count or chunk size (counter-derived noise).
	if err := a.captureBurstInto(ctx, 1, tempC, a.scratchCounts()); err != nil {
		return nil, err
	}
	out := make([]byte, len(a.data))
	copy(out, a.data)
	return out, nil
}

// PowerOff drops the supply. If dischargeFully is true the caller drives
// the rails to ground (as the paper's rig does: "all of our measurements
// eliminate the SRAM data remanence effect by driving the supply voltage
// of the device to the ground state", §5) and the stored state is lost.
// If false, a rapid power cycle leaves charge on the nodes and the next
// PowerOn returns the previous contents unchanged — the remanence effect.
func (a *Array) PowerOff(dischargeFully bool) {
	if !a.powered {
		return
	}
	a.powered = false
	if !dischargeFully {
		a.remanent = true
		return
	}
	a.remanent = false
}

// PowerCycle is the receiver's capture primitive: discharge-off then on.
func (a *Array) PowerCycle(tempC float64) ([]byte, error) {
	a.PowerOff(true)
	return a.PowerOn(tempC)
}

// Write replaces the digital contents. Short data is an error — software
// always knows the SRAM size it is writing.
func (a *Array) Write(data []byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	if len(data) != len(a.data) {
		return fmt.Errorf("sram: write of %d bytes into %d-byte array", len(data), len(a.data))
	}
	copy(a.data, data)
	return nil
}

// WriteAt stores data at byte offset off, leaving the rest untouched.
func (a *Array) WriteAt(off int, data []byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	if off < 0 || off+len(data) > len(a.data) {
		return fmt.Errorf("sram: write [%d, %d) out of bounds for %d-byte array",
			off, off+len(data), len(a.data))
	}
	copy(a.data[off:], data)
	return nil
}

// Read returns a copy of the digital contents.
func (a *Array) Read() ([]byte, error) {
	if !a.powered {
		return nil, ErrUnpowered
	}
	out := make([]byte, len(a.data))
	copy(out, a.data)
	return out, nil
}

// ByteAt returns the digital byte at offset off (for the CPU bus).
func (a *Array) ByteAt(off int) (byte, error) {
	if !a.powered {
		return 0, ErrUnpowered
	}
	if off < 0 || off >= len(a.data) {
		return 0, fmt.Errorf("sram: byte read at %d out of range", off)
	}
	return a.data[off], nil
}

// SetByteAt writes the digital byte at offset off (for the CPU bus).
func (a *Array) SetByteAt(off int, b byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	if off < 0 || off >= len(a.data) {
		return fmt.Errorf("sram: byte write at %d out of range", off)
	}
	a.data[off] = b
	return nil
}

// Fill writes the same byte everywhere (the all-0s/all-1s stress patterns
// of Fig. 3 and Table 2).
func (a *Array) Fill(b byte) error {
	if !a.powered {
		return ErrUnpowered
	}
	for i := range a.data {
		a.data[i] = b
	}
	return nil
}

// Stress ages the array for hours under conditions c while it holds its
// current digital contents. Each cell's active direction accumulates
// stress; the opposite direction's recoverable pools relax (its PMOS is
// unstressed for the duration). This is the paper's data-directed aging
// (§2.2) and the core of the encoding step (Algorithm 1, lines 5–6).
func (a *Array) Stress(c analog.Conditions, hours float64) error {
	if !a.powered {
		return ErrUnpowered
	}
	if hours <= 0 {
		return nil
	}
	p := a.spec.Aging
	// The opposite direction's recoverable pools relax at the chamber
	// temperature (hot soaks also heal faster).
	fFast, fSlow := p.RecoveryFactorsAt(hours, c.TempC)
	f32, s32 := float32(fFast), float32(fSlow)
	permFrac := p.PermanentFrac()
	n := p.TimeExponent
	invN := 1 / n
	a0 := p.A0MvPerHourN
	// Everything condition-dependent hoists out of the cell loop: dt
	// hours at Rate(c) advances a cell's reference-rate equivalent time
	// by dt·(Rate(c)/A0)^(1/n) — one Rate and one Pow for the whole
	// call instead of per cell, and growth becomes a forward power
	// evaluation (no inverse Pow per cell).
	dtEff := hours * math.Pow(p.Rate(c)/a0, invN)
	// Pure per-cell math over disjoint byte-aligned shards; the plane
	// update rides along, so a full Stress leaves the bias cache fresh
	// even if it was stale on entry.
	err := a.pool.Run(context.Background(), len(a.data), 1, func(lo, hi int) {
		for byteIdx := lo; byteIdx < hi; byteIdx++ {
			bits := a.data[byteIdx]
			base := byteIdx * 8
			for b := 0; b < 8; b++ {
				i := base + b
				if bits&(1<<b) != 0 {
					growPoolsEq(a0, n, invN, dtEff, permFrac, p.RecFastFrac, p.RecSlowFrac,
						&a.t1Ref[i], &a.s1Perm[i], &a.s1Fast[i], &a.s1Slow[i])
					if a.s0Fast[i] != 0 || a.s0Slow[i] != 0 {
						a.s0Fast[i] *= f32
						a.s0Slow[i] *= s32
						a.t0Ref[i] = -1 // total shrank: equivalent time stale
					}
				} else {
					growPoolsEq(a0, n, invN, dtEff, permFrac, p.RecFastFrac, p.RecSlowFrac,
						&a.t0Ref[i], &a.s0Perm[i], &a.s0Fast[i], &a.s0Slow[i])
					if a.s1Fast[i] != 0 || a.s1Slow[i] != 0 {
						a.s1Fast[i] *= f32
						a.s1Slow[i] *= s32
						a.t1Ref[i] = -1
					}
				}
				a.biasPlane[i] = float32(a.bias(i))
			}
		}
	})
	if err != nil {
		return err
	}
	a.biasFresh = true
	a.bumpBiasEpoch()
	return nil
}

// growPoolsEq applies effective-time stress growth to one direction's
// pools using the tracked reference-rate equivalent time: te advances by
// the caller's pre-scaled dtEff and the new total is one forward
// exp(n·log te). A negative *tRef means the pools decayed since te was
// last valid; re-derive it from the current total — the same inverse
// power the pre-overhaul engine paid on every cell of every call, now
// paid only by cells that actually decayed.
func growPoolsEq(a0, n, invN, dtEff, permFrac, fastFrac, slowFrac float64,
	tRef *float64, perm, fast, slow *float32) {
	total := float64(*perm) + float64(*fast) + float64(*slow)
	te := *tRef
	if te < 0 {
		te = 0
		if total > 0 {
			te = math.Pow(total/a0, invN)
		}
	}
	te += dtEff
	*tRef = te
	delta := a0*math.Exp(n*math.Log(te)) - total
	if delta <= 0 {
		return
	}
	*perm += float32(delta * permFrac)
	*fast += float32(delta * fastFrac)
	*slow += float32(delta * slowFrac)
}

// Shelve lets the unpowered array recover naturally for hours (§5.1.3)
// at the reference storage temperature.
func (a *Array) Shelve(hours float64) error {
	if a.powered {
		return fmt.Errorf("sram: cannot shelve a powered array")
	}
	if hours <= 0 {
		return nil
	}
	fFast, fSlow := a.spec.Aging.RecoveryFactors(hours)
	a.decayPools(fFast, fSlow)
	return nil
}

// ShelveAt stores the unpowered array at tempC for hours. Hot storage
// accelerates recovery (Arrhenius) — the basis of the "baking attack"
// where an adversary ovens a suspect device to erase a potential
// message. Both directions' recoverable pools decay; permanent damage
// remains, which is what bounds the attack.
func (a *Array) ShelveAt(hours, tempC float64) error {
	if a.powered {
		return fmt.Errorf("sram: cannot shelve a powered array")
	}
	if hours <= 0 {
		return nil
	}
	fFast, fSlow := a.spec.Aging.RecoveryFactorsAt(hours, tempC)
	a.decayPools(fFast, fSlow)
	return nil
}

func (a *Array) decayPools(fFast, fSlow float64) {
	f32, s32 := float32(fFast), float32(fSlow)
	// Background context: Run cannot fail. Decayed directions' equivalent
	// times go stale; the plane update rides along, so shelving leaves
	// the bias cache fresh.
	_ = a.pool.Run(context.Background(), len(a.data), 1, func(lo, hi int) {
		for i := lo * 8; i < hi*8; i++ {
			if a.s0Fast[i] != 0 || a.s0Slow[i] != 0 {
				a.s0Fast[i] *= f32
				a.s0Slow[i] *= s32
				a.t0Ref[i] = -1
			}
			if a.s1Fast[i] != 0 || a.s1Slow[i] != 0 {
				a.s1Fast[i] *= f32
				a.s1Slow[i] *= s32
				a.t1Ref[i] = -1
			}
			a.biasPlane[i] = float32(a.bias(i))
		}
	})
	a.biasFresh = true
	a.bumpBiasEpoch()
}
