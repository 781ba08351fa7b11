package sram

import (
	"context"
	"fmt"
	"math/bits"

	"invisiblebits/internal/rng"
)

// Word-parallel capture engine.
//
// A capture burst is, per cell, `captures` races of `bias + sigma*noise
// > 0`. The reference engine (reference.go) resolves them cell by cell;
// this kernel — the only production capture engine — resolves them 64
// cells per machine word:
//
//   - The bias plane splits once per (bias epoch, sigma) into
//     deterministic-one / deterministic-zero word planes (cells whose
//     |bias| exceeds the hard noise bound resolve identically on every
//     race — no draws, their counts are 0 or `races` by inspection) and
//     a packed residue of noisy cells with precomputed per-cell noise
//     coordinates (rng.IdxMul) and draw-space vote thresholds
//     (rng.VoteThreshold / rng.VoteBoundsF32).
//   - Each race runs rng.PackedZigVotes (or rng.PackedBMVotes for v1
//     arrays) over the packed residue, producing one vote bit per cell
//     per word, and ripple-adds the vote words into bit-sliced
//     counters: slice b of word w holds bit b of every cell's running
//     count, so accumulating 64 cells costs a handful of word ops and
//     counts up to MaxCaptures fit in 16 slices.
//   - Races iterate innermost over cache-sized chunks of the packed
//     arrays (kernelChunkWords), so a burst streams the per-cell tables
//     from memory once, not once per race.
//   - After the last race the sliced counters transpose back to per-cell
//     counts, the final race's votes scatter into the data plane next
//     to the deterministic words, and majority/vote/bias outputs all
//     derive from the counts.
//
// The kernel consumes exactly the counter-derived noise tape
// (norm(base+k, i) for race k, cell i) the reference engine consumes, so
// votes, the final data plane and PowerOnCount are bit-identical to
// CaptureVotesReference / PowerOnReference for any worker count — the
// sram differential and fuzz suites enforce this.

// MaxCaptures is the largest capture count a single burst supports: the
// per-cell vote counters are 16-bit, so a burst beyond 65535 captures
// could silently truncate counts (the pre-kernel engine did exactly
// that when narrowing its internal uint32 counters). Larger campaigns
// split into multiple bursts — the noise tape advances per race, so two
// back-to-back bursts draw exactly the noise one big burst would.
const MaxCaptures = 65535

// CaptureCountError reports a capture count the vote counters cannot
// represent. It is a typed error so callers can distinguish "split your
// burst" from parameter validation failures.
type CaptureCountError struct{ Captures int }

func (e *CaptureCountError) Error() string {
	return fmt.Sprintf("sram: %d captures exceed the %d-capture burst limit (16-bit vote counters)",
		e.Captures, MaxCaptures)
}

// kernelChunkWords is the packed-domain chunk the race loop iterates
// within: 256 words = 16384 cells keeps a chunk's working set (idxMul,
// thresholds, draws, votes, slices — ~520 KiB) L2-resident on a
// megabyte-class L2, so a burst reads the per-cell tables from memory
// once per burst instead of once per race, while each packed-kernel
// call is long enough to amortize its gather, dispatch and slow-lane
// pool overhead.
const kernelChunkWords = 256

// capKernel caches the packed capture layout and owns the burst
// scratch. The layout half is valid for one (bias epoch, sigma, noise
// generation) key; the scratch half is reused by every burst, so
// steady-state captures allocate nothing.
type capKernel struct {
	valid bool
	epoch uint64
	sigma float64
	gen   int

	// Global word domain (nw = ceil(n/64) words).
	det1 []uint64 // cells deterministically 1 at this sigma
	det0 []uint64 // cells deterministically 0
	// Packed noisy-cell residue, ascending cell order.
	cellIdx []uint32
	idxMul  []uint64
	xt      []float64
	xtLo    []float32
	xtHi    []float32

	// Burst scratch, packed noisy domain.
	votes  []uint64
	slow   []uint64
	draws  []uint64
	last   []uint64 // final race's votes, scattered to the data plane
	slices [16][]uint64
	ctrs   []uint64
	dataW  []uint64 // assembled data plane, global word domain
	counts []uint16 // per-cell counts for callers that discard them
	remB   []byte   // retained-contents snapshot for remanent first captures
	// detCounts is the deterministic-cell count plane for detRaces races
	// (0 at noisy and deterministic-zero cells): counts assembly starts
	// as one memcpy instead of a per-cell walk.
	detCounts []uint16
	detRaces  int

	// raceFn is the worker-pool body, created once so steady-state
	// bursts pass an existing closure to pool.Run instead of allocating
	// one per call; burstRaces parameterizes it per burst.
	raceFn     func(lo, hi int)
	burstRaces int
	burstNB    int // count bits this burst needs (bits.Len(races))
}

// bumpBiasEpoch invalidates every derived view of the bias plane (the
// packed capture layout). Call sites are exactly the writers of
// biasPlane: ensureBiasPlane rebuilds, Stress, decayPools and
// StressReference.
func (a *Array) bumpBiasEpoch() { a.biasEpoch++ }

// ensureKernel (re)builds the packed capture layout for sigma if the
// cached one is stale. The build is one pass over the bias plane;
// within an epoch (between stress/recovery events) every burst at the
// same temperature reuses it.
func (a *Array) ensureKernel(ctx context.Context, sigma float64) error {
	if err := a.ensureBiasPlane(ctx); err != nil {
		return err
	}
	k := &a.kern
	if k.valid && k.epoch == a.biasEpoch && k.sigma == sigma && k.gen == a.spec.NoiseGen {
		return nil
	}
	nw := (a.n + 63) / 64
	if cap(k.det1) < nw {
		k.det1 = make([]uint64, nw)
		k.det0 = make([]uint64, nw)
		k.dataW = make([]uint64, nw)
	}
	k.det1 = k.det1[:nw]
	k.det0 = k.det0[:nw]
	k.dataW = k.dataW[:nw]
	if cap(k.cellIdx) < a.n {
		// Worst case every cell is noisy (always true for v1 arrays).
		k.cellIdx = make([]uint32, 0, a.n)
		k.idxMul = make([]uint64, 0, a.n)
		k.xt = make([]float64, 0, a.n)
		k.xtLo = make([]float32, 0, a.n)
		k.xtHi = make([]float32, 0, a.n)
	}
	k.cellIdx = k.cellIdx[:0]
	k.idxMul = k.idxMul[:0]
	k.xt = k.xt[:0]
	k.xtLo = k.xtLo[:0]
	k.xtHi = k.xtHi[:0]

	bound := a.pruneBound(sigma)
	zig := a.spec.NoiseGen == NoiseGenZiggurat
	for w := 0; w < nw; w++ {
		var d1, d0 uint64
		base := w * 64
		lim := a.n - base
		if lim > 64 {
			lim = 64
		}
		for j := 0; j < lim; j++ {
			i := base + j
			bias := float64(a.biasPlane[i])
			if bias > bound {
				d1 |= 1 << uint(j)
				continue
			}
			if bias < -bound {
				d0 |= 1 << uint(j)
				continue
			}
			xt := rng.VoteThreshold(bias, sigma)
			k.cellIdx = append(k.cellIdx, uint32(i))
			k.idxMul = append(k.idxMul, rng.IdxMul(uint64(i)))
			k.xt = append(k.xt, xt)
			if zig {
				lo, hi := rng.VoteBoundsF32(xt)
				k.xtLo = append(k.xtLo, lo)
				k.xtHi = append(k.xtHi, hi)
			}
		}
		k.det1[w] = d1
		k.det0[w] = d0
	}

	nc := len(k.cellIdx)
	nwN := (nc + 63) / 64
	if cap(k.votes) < nwN {
		k.votes = make([]uint64, nwN)
		k.slow = make([]uint64, nwN)
		k.last = make([]uint64, nwN)
	}
	k.votes = k.votes[:nwN]
	k.slow = k.slow[:nwN]
	k.last = k.last[:nwN]
	if cap(k.draws) < nc {
		k.draws = make([]uint64, nc)
	}
	k.draws = k.draws[:nc]

	k.valid = true
	k.epoch = a.biasEpoch
	k.sigma = sigma
	k.gen = a.spec.NoiseGen
	k.detRaces = -1 // det planes changed: count template is stale
	return nil
}

// ensureSlices sizes and zeroes the bit-sliced counter planes for a
// burst whose counts need nb bits. The fast ripple path touches five
// planes unconditionally (carries above bit nb-1 never happen — counts
// stay ≤ races < 2^nb — but the stores still need somewhere to land),
// so at least five are always prepared.
func (k *capKernel) ensureSlices(nb int) {
	if nb < 5 {
		nb = 5
	}
	nwN := len(k.votes)
	for b := 0; b < nb; b++ {
		if cap(k.slices[b]) < nwN {
			k.slices[b] = make([]uint64, nwN)
		}
		s := k.slices[b][:nwN]
		for i := range s {
			s[i] = 0
		}
		k.slices[b] = s
	}
}

// scratchCounts returns the kernel-owned per-cell counts buffer for
// callers that derive an output from the counts rather than returning
// them. Valid until the next burst.
func (a *Array) scratchCounts() []uint16 {
	if cap(a.kern.counts) < a.n {
		a.kern.counts = make([]uint16, a.n)
	}
	a.kern.counts = a.kern.counts[:a.n]
	return a.kern.counts
}

// captureBurstInto runs `captures` power-on races at tempC, writing
// each cell's count of 1 readings into out (len == Cells()) and the
// final capture into the data plane, leaving the array powered. It is
// the engine behind every capture entry point; steady-state calls
// allocate nothing. Counter consumption, remanence handling and the
// noise tape match CaptureVotesReference bit for bit.
func (a *Array) captureBurstInto(ctx context.Context, captures int, tempC float64, out []uint16) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	races := captures
	remFirst := false
	if !a.powered && a.remanent {
		// First capture is the remembered state; no race, no counter.
		a.remanent = false
		remFirst = true
		races--
	}
	var remBytes []byte
	if remFirst {
		// Snapshot the retained contents before the races overwrite them.
		remBytes = a.kern.remSnapshot(a.data)
	}
	if races > 0 {
		if err := a.runRaces(ctx, races, tempC, out); err != nil {
			a.powered = false
			return err
		}
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	if remFirst {
		for byteIdx, bv := range remBytes {
			base := byteIdx * 8
			for ; bv != 0; bv &= bv - 1 {
				out[base+bits.TrailingZeros8(bv)]++
			}
		}
	}
	a.powered = true
	return nil
}

// remSnapshot copies the retained data plane into kernel-owned scratch.
func (k *capKernel) remSnapshot(data []byte) []byte {
	if cap(k.remB) < len(data) {
		k.remB = make([]byte, len(data))
	}
	k.remB = k.remB[:len(data)]
	copy(k.remB, data)
	return k.remB
}

// runRaces executes `races` fresh power-on races and fills out with the
// per-cell counts; the last race becomes the data plane.
func (a *Array) runRaces(ctx context.Context, races int, tempC float64, out []uint16) error {
	nwN, err := a.beginRaces(ctx, races, tempC)
	if err != nil {
		return err
	}
	if nwN > 0 {
		if err := a.pool.Run(ctx, nwN, 1, a.kern.raceFn); err != nil {
			return err
		}
	}
	a.finishRaces(races, out)
	return nil
}

// beginRaces readies the kernel for a burst of `races` races at tempC —
// packed layout, zeroed counter slices, one noise counter per race
// consumed — and returns the number of packed words the burst body
// (kern.raceFn over [0, nwN)) must cover.
func (a *Array) beginRaces(ctx context.Context, races int, tempC float64) (nwN int, err error) {
	sigma := a.noiseSigmaAt(tempC)
	if err := a.ensureKernel(ctx, sigma); err != nil {
		return 0, err
	}
	k := &a.kern
	nb := bits.Len(uint(races)) // counts ≤ races < 1<<nb
	k.ensureSlices(nb)
	if cap(k.ctrs) < races {
		k.ctrs = make([]uint64, races)
	}
	k.ctrs = k.ctrs[:races]
	base := a.powerOns
	a.powerOns += uint64(races)
	for r := 0; r < races; r++ {
		k.ctrs[r] = a.noise.CtrState(base + uint64(r))
	}
	k.burstRaces = races
	k.burstNB = nb
	if k.raceFn == nil {
		k.raceFn = a.raceChunks
	}
	return len(k.votes), nil
}

// finishRaces assembles the burst's per-cell counts into out and its
// final race into the data plane.
func (a *Array) finishRaces(races int, out []uint16) {
	k := &a.kern
	nc := len(k.cellIdx)
	nwN := len(k.votes)
	nb := k.burstNB

	// Assemble counts and the final data plane. Deterministic cells
	// resolve identically on every race, so their count plane is a pure
	// function of (layout, races): build it once per races value and
	// memcpy it per burst — steady-state decode loops reuse one races
	// count, so the per-cell walk amortizes to a copy. Noisy cells then
	// transpose out of the sliced counters and scatter over the template.
	if k.detRaces != races {
		if cap(k.detCounts) < a.n {
			k.detCounts = make([]uint16, a.n)
		}
		k.detCounts = k.detCounts[:a.n]
		for i := range k.detCounts {
			k.detCounts[i] = 0
		}
		rc := uint16(races)
		for w, d1 := range k.det1 {
			wbase := w * 64
			for m := d1; m != 0; m &= m - 1 {
				k.detCounts[wbase+bits.TrailingZeros64(m)] = rc
			}
		}
		k.detRaces = races
	}
	copy(out, k.detCounts)
	copy(k.dataW, k.det1)
	for pw := 0; pw < nwN; pw++ {
		lv := k.last[pw]
		cbase := pw * 64
		lim := nc - cbase
		if lim > 64 {
			lim = 64
		}
		var sl [16]uint64
		for b := 0; b < nb; b++ {
			sl[b] = k.slices[b][pw]
		}
		idx := k.cellIdx[cbase : cbase+lim]
		if nb <= 5 {
			// Straight-line transpose for every realistic burst
			// (≤ 31 captures): unfilled slice words are zero, so
			// reading all five is safe and branch-free.
			s0, s1, s2, s3, s4 := sl[0], sl[1], sl[2], sl[3], sl[4]
			for j := 0; j < lim; j++ {
				jj := uint(j)
				cnt := s0>>jj&1 | (s1>>jj&1)<<1 | (s2>>jj&1)<<2 |
					(s3>>jj&1)<<3 | (s4>>jj&1)<<4
				ci := idx[j]
				out[ci] = uint16(cnt)
				k.dataW[ci>>6] |= (lv >> jj & 1) << (ci & 63)
			}
			continue
		}
		for j := 0; j < lim; j++ {
			var cnt uint64
			for b := nb - 1; b >= 0; b-- {
				cnt = cnt<<1 | sl[b]>>uint(j)&1
			}
			ci := idx[j]
			out[ci] = uint16(cnt)
			k.dataW[ci>>6] |= (lv >> uint(j) & 1) << (ci & 63)
		}
	}
	packWordsToBytes(k.dataW, a.data)
}

// raceChunks is the burst worker body: it runs every race of the
// current burst over packed words [lo, hi), chunked so each chunk's
// tables stay cache-resident across the whole burst. Chunks are
// independent (counter-derived noise), so any sharding is exact.
func (a *Array) raceChunks(lo, hi int) {
	k := &a.kern
	nc := len(k.cellIdx)
	races := k.burstRaces
	nb := k.burstNB
	zig := k.gen == NoiseGenZiggurat
	for clo := lo; clo < hi; clo += kernelChunkWords {
		chi := clo + kernelChunkWords
		if chi > hi {
			chi = hi
		}
		cellLo := clo * 64
		cellHi := chi * 64
		if cellHi > nc {
			cellHi = nc
		}
		im := k.idxMul[cellLo:cellHi]
		xts := k.xt[cellLo:cellHi]
		votes := k.votes[clo:chi]
		for r := 0; r < races; r++ {
			if zig {
				rng.PackedZigVotes(k.ctrs[r], im, xts,
					k.xtLo[cellLo:cellHi], k.xtHi[cellLo:cellHi],
					votes, k.slow[clo:chi], k.draws[cellLo:cellHi])
			} else {
				rng.PackedBMVotes(k.ctrs[r], im, xts, votes)
			}
			// Ripple-add this race's vote bits into the sliced
			// counters. The carry-chain length is data-dependent and
			// unpredictable, so the common depth (two levels) runs
			// branch-free; carries past bit 1 (~1 word in 16) take the
			// guarded tail. Bursts needing more than five count bits
			// (> 31 captures) use the generic ripple.
			if nb <= 5 {
				s0, s1, s2, s3, s4 := k.slices[0], k.slices[1], k.slices[2], k.slices[3], k.slices[4]
				for w := 0; w < len(votes); w++ {
					i := clo + w
					v := votes[w]
					t := s0[i]
					s0[i] = t ^ v
					v &= t
					t = s1[i]
					s1[i] = t ^ v
					v &= t
					if v != 0 {
						t = s2[i]
						s2[i] = t ^ v
						v &= t
						t = s3[i]
						s3[i] = t ^ v
						v &= t
						t = s4[i]
						s4[i] = t ^ v
					}
				}
			} else {
				for w := 0; w < len(votes); w++ {
					carry := votes[w]
					for b := 0; carry != 0; b++ {
						sb := k.slices[b]
						s := sb[clo+w]
						sb[clo+w] = s ^ carry
						carry &= s
					}
				}
			}
		}
		copy(k.last[clo:chi], votes)
	}
}

// packWordsToBytes writes the little-endian word plane into the
// bit-packed byte plane (bit i of the array is data[i/8]>>(i%8), which
// is exactly the little-endian byte order of 64-bit words).
func packWordsToBytes(words []uint64, data []byte) {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		w := words[i>>3]
		data[i] = byte(w)
		data[i+1] = byte(w >> 8)
		data[i+2] = byte(w >> 16)
		data[i+3] = byte(w >> 24)
		data[i+4] = byte(w >> 32)
		data[i+5] = byte(w >> 40)
		data[i+6] = byte(w >> 48)
		data[i+7] = byte(w >> 56)
	}
	if i < len(data) {
		w := words[i>>3]
		for ; i < len(data); i++ {
			data[i] = byte(w >> uint((i&7)*8))
		}
	}
}
