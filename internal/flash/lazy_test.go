package flash

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"invisiblebits/internal/rng"
)

// eagerArray is the pre-lazy Array: flat per-bit planes drawn for every
// bit at construction. It is kept verbatim as the oracle the per-page
// build must reproduce bit for bit.
type eagerArray struct {
	spec       Spec
	data       []byte
	progTimeUs []float32
	vt         []float32
	peCycles   []uint32
	noise      *rng.Source
}

func newEager(spec Spec) *eagerArray {
	bytes := spec.PageBytes * spec.Pages
	bits := bytes * 8
	a := &eagerArray{
		spec:       spec,
		data:       make([]byte, bytes),
		progTimeUs: make([]float32, bits),
		vt:         make([]float32, bits),
		peCycles:   make([]uint32, spec.Pages),
	}
	seedSrc := rng.NewSource(spec.Seed)
	vary := seedSrc.Split()
	a.noise = seedSrc.Split()
	for i := range a.progTimeUs {
		a.progTimeUs[i] = float32(spec.ProgramTimeMeanUs *
			math.Exp(vary.NormScaled(0, spec.ProgramTimeSigma)))
		a.vt[i] = float32(spec.VtErased)
	}
	for i := range a.data {
		a.data[i] = 0xFF
	}
	return a
}

var errOracle = errors.New("oracle: rejected")

func (a *eagerArray) erasePage(page int) error {
	if page < 0 || page >= a.spec.Pages {
		return errOracle
	}
	base := page * a.spec.PageBytes
	for i := 0; i < a.spec.PageBytes; i++ {
		a.data[base+i] = 0xFF
	}
	bitBase := base * 8
	for b := 0; b < a.spec.PageBytes*8; b++ {
		a.vt[bitBase+b] = float32(a.spec.VtErased)
	}
	a.wearPage(page, 1)
	return nil
}

func (a *eagerArray) wearPage(page, n int) {
	a.peCycles[page] += uint32(n)
	slow := float32(a.spec.WearSlowdownUsPerCycle * float64(n))
	bitBase := page * a.spec.PageBytes * 8
	for b := 0; b < a.spec.PageBytes*8; b++ {
		a.progTimeUs[bitBase+b] += slow
	}
}

func (a *eagerArray) program(off int, data []byte) (float64, error) {
	if off < 0 || off+len(data) > len(a.data) {
		return 0, errOracle
	}
	var total float64
	for i, b := range data {
		old := a.data[off+i]
		a.data[off+i] = old & b
		cleared := old &^ b
		for k := 0; k < 8; k++ {
			if cleared&(1<<k) != 0 {
				bit := (off+i)*8 + k
				total += float64(a.progTimeUs[bit]) +
					a.noise.NormScaled(0, a.spec.MeasureNoiseUs)
				a.vt[bit] = float32(a.noise.NormScaled(a.spec.VtProgrammed, a.spec.VtSigma))
			}
		}
	}
	return total, nil
}

func (a *eagerArray) cyclePage(page, n int) error {
	if page < 0 || page >= a.spec.Pages || n < 0 {
		return errOracle
	}
	a.wearPage(page, n)
	return nil
}

func (a *eagerArray) cycleBits(bits []int, n int) error {
	if n < 0 {
		return errOracle
	}
	slow := float32(a.spec.WearSlowdownUsPerCycle * float64(n))
	for _, b := range bits {
		if b < 0 || b >= len(a.progTimeUs) {
			return errOracle
		}
		a.progTimeUs[b] += slow
	}
	return nil
}

func (a *eagerArray) measureProgramTime(bit int) (float64, error) {
	if bit < 0 || bit >= len(a.progTimeUs) {
		return 0, errOracle
	}
	return float64(a.progTimeUs[bit]) + a.noise.NormScaled(0, a.spec.MeasureNoiseUs), nil
}

func (a *eagerArray) overcharge(bit int) error {
	if bit < 0 || bit >= len(a.vt) {
		return errOracle
	}
	if a.data[bit/8]&(1<<(bit%8)) != 0 {
		return errOracle
	}
	a.vt[bit] = float32(a.noise.NormScaled(a.spec.VtOvercharged, a.spec.VtSigma))
	return nil
}

func (a *eagerArray) marginRead(bit int) (float64, error) {
	if bit < 0 || bit >= len(a.vt) {
		return 0, errOracle
	}
	return float64(a.vt[bit]) + a.noise.NormScaled(0, a.spec.MeasureNoiseV), nil
}

// planes builds every page of a, in the given order, and returns its
// program-time and Vt planes flattened in bit order.
func planes(a *Array, order []int) (pt, vt []float32) {
	for _, p := range order {
		a.page(p)
	}
	for _, pg := range a.pages {
		pt = append(pt, pg.progTimeUs...)
		vt = append(vt, pg.vt...)
	}
	return pt, vt
}

func builtPages(a *Array) int {
	n := 0
	for _, pg := range a.pages {
		if pg.progTimeUs != nil {
			n++
		}
	}
	return n
}

// TestLazyPlanesMatchEagerOracle drives random operation sequences,
// touching pages in random order, through a lazy Array and the eager
// oracle of the same spec: every return value, and every plane value at
// the end, must be bit-identical.
func TestLazyPlanesMatchEagerOracle(t *testing.T) {
	specs := []Spec{small()}
	for _, g := range []struct{ pageBytes, pages int }{{16, 32}, {512, 32}, {8, 3}} {
		s := DefaultSpec()
		s.PageBytes, s.Pages = g.pageBytes, g.pages
		specs = append(specs, s)
	}
	for si, base := range specs {
		for seed := uint64(1); seed <= 6; seed++ {
			spec := base
			spec.Seed = seed * 0x9e3779b97f4a7c15
			t.Run(fmt.Sprintf("spec%d/seed%d", si, seed), func(t *testing.T) {
				runOracleSequence(t, spec, rng.NewSource(seed+uint64(si)<<8), 400)
			})
		}
	}
}

func runOracleSequence(t *testing.T, spec Spec, r *rng.Source, steps int) {
	t.Helper()
	lazy := mustNew(t, spec)
	eager := newEager(spec)
	bits := spec.PageBytes * spec.Pages * 8
	// Indices stray up to a page past either end to exercise range checks.
	pick := func(n int) int { return r.Intn(n+2) - 1 }
	bitIn := func(page int) int { return page*spec.PageBytes*8 + r.Intn(spec.PageBytes*8) }
	same := func(step int, op string, gl, ge float64, el, ee error) {
		t.Helper()
		if (el == nil) != (ee == nil) {
			t.Fatalf("step %d %s: lazy err %v, oracle err %v", step, op, el, ee)
		}
		if math.Float64bits(gl) != math.Float64bits(ge) {
			t.Fatalf("step %d %s: lazy %v, oracle %v", step, op, gl, ge)
		}
	}
	for step := 0; step < steps; step++ {
		page := pick(spec.Pages)
		bit := -1
		if page >= 0 && page < spec.Pages {
			bit = bitIn(page)
		} else if page == spec.Pages {
			bit = bits
		}
		switch op := r.Intn(7); op {
		case 0:
			n := 1 + r.Intn(2*spec.PageBytes)
			off := pick(spec.Pages*spec.PageBytes - n + 1)
			data := make([]byte, n)
			r.Bytes(data)
			gl, el := lazy.Program(off, data)
			ge, ee := eager.program(off, data)
			same(step, "Program", gl, ge, el, ee)
		case 1:
			same(step, "ErasePage", 0, 0, lazy.ErasePage(page), eager.erasePage(page))
		case 2:
			n := r.Intn(40) - 2
			same(step, "CyclePage", 0, 0, lazy.CyclePage(page, n), eager.cyclePage(page, n))
		case 3:
			set := make([]int, 1+r.Intn(64))
			for i := range set {
				set[i] = pick(bits)
			}
			n := r.Intn(20)
			same(step, "CycleBits", 0, 0, lazy.CycleBits(set, n), eager.cycleBits(set, n))
		case 4:
			gl, el := lazy.MeasureProgramTime(bit)
			ge, ee := eager.measureProgramTime(bit)
			same(step, "MeasureProgramTime", gl, ge, el, ee)
		case 5:
			same(step, "Overcharge", 0, 0, lazy.Overcharge(bit), eager.overcharge(bit))
		case 6:
			gl, el := lazy.MarginRead(bit)
			ge, ee := eager.marginRead(bit)
			same(step, "MarginRead", gl, ge, el, ee)
		}
	}
	for p := 0; p < spec.Pages; p++ {
		n, _ := lazy.PECycles(p)
		if n != eager.peCycles[p] {
			t.Fatalf("page %d: %d P/E cycles, oracle %d", p, n, eager.peCycles[p])
		}
	}
	got, _ := lazy.Read(0, lazy.Bytes())
	for i := range got {
		if got[i] != eager.data[i] {
			t.Fatalf("byte %d: %#x, oracle %#x", i, got[i], eager.data[i])
		}
	}
	pt, vt := planes(lazy, r.Perm(spec.Pages))
	for i := range pt {
		if math.Float32bits(pt[i]) != math.Float32bits(eager.progTimeUs[i]) ||
			math.Float32bits(vt[i]) != math.Float32bits(eager.vt[i]) {
			t.Fatalf("bit %d: (%v, %v), oracle (%v, %v)", i, pt[i], vt[i], eager.progTimeUs[i], eager.vt[i])
		}
	}
}

// TestProgramTimePlaneDigests pins the full intrinsic program-time plane
// (float32 bits, little endian, bit order) for DefaultSpec and the flash
// geometries of three catalog boards. The digests were computed with the
// eager whole-array build; pages are built here in reverse order so
// every page but the last is reached by skipping the stream forward.
func TestProgramTimePlaneDigests(t *testing.T) {
	cases := []struct {
		name   string
		pages  int
		seed   uint64
		digest string
	}{
		{"default", 512, 0x1, "b669e4f28b2a9f395be0eebe088bf6d76c5f200e1d206c8db135509ab6933ac5"},
		{"default", 512, 0x2, "c8b0d9c72542cfbdaf6875abe487cc58b4ce7b330d1b37b124f8a89a3868fcb7"},
		{"default", 512, 0x5eed, "80cd31db007c60a4a22d09c46700b66e29e132345b50f4e784d333e7a84e5b62"},
		{"MSP430G2553/flash/sn-0001", 32, 0, "f4c3d6a87b09efd959373d2bd7620fe2b870266b50cbf5b36523b276d6942508"},
		{"MSP430G2553/flash/sn-0002", 32, 0, "86438741f8403261a77e13d78cbcff75ef0eae198a0c276a3784cade3b416ab9"},
		{"ATSAML11E16A/flash/sn-0001", 128, 0, "4dfa3289bf97c6a8da09c5a683ea265d42d84fc3db4daaa5375709fb001efd71"},
		{"ATSAML11E16A/flash/sn-0002", 128, 0, "c8b9c53db5904b9776a327db0f3053532bfa510995a116a3e696ac29327e57fc"},
		{"MSP432P401/flash/sn-0001", 512, 0, "99734c4ec88cfc52e52e7166a351eda228f282feb0cf48c9a1a89487cf4c9429"},
		{"MSP432P401/flash/sn-0002", 512, 0, "0a9cb889782b132c20dac0f4bbbfcb78bedd49e7756efeaceb699c11ecb1f9f7"},
	}
	for _, c := range cases {
		spec := DefaultSpec()
		spec.Pages = c.pages
		spec.Seed = c.seed
		if c.seed == 0 {
			// A catalog board's flash seed, derived as device.New does.
			spec.Seed = rng.HashString(c.name)
		}
		order := make([]int, spec.Pages)
		for i := range order {
			order[i] = spec.Pages - 1 - i
		}
		pt, _ := planes(mustNew(t, spec), order)
		h := sha256.New()
		var b [4]byte
		for _, v := range pt {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
			t.Errorf("%s seed %#x: plane digest %s, want %s", c.name, spec.Seed, got, c.digest)
		}
	}
}

// TestDigitalAccessBuildsNoPage: reads never draw analog state, and a
// program that clears no bit does not either.
func TestDigitalAccessBuildsNoPage(t *testing.T) {
	a := mustNew(t, small())
	if _, err := a.Read(0, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ByteAt(a.Bytes() - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(0, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if n := builtPages(a); n != 0 {
		t.Fatalf("digital access built %d pages", n)
	}
	if _, err := a.Program(3*a.Spec().PageBytes, []byte{0xFE}); err != nil {
		t.Fatal(err)
	}
	if n := builtPages(a); n != 1 || a.pages[3].progTimeUs == nil {
		t.Fatalf("programming one bit on page 3 built %d pages", n)
	}
}

// TestNewAllocatesNoPlanes pins the construction saving: a 256 KiB
// array (the MSP432P401's flash) must cost its digital contents plus
// per-page bookkeeping, not the 16 MiB the two eager float32 planes took.
func TestNewAllocatesNoPlanes(t *testing.T) {
	spec := DefaultSpec()
	spec.Pages = (256 << 10) / spec.PageBytes
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("flash.New(256 KiB) allocated %d bytes, want < 1 MiB", got)
	}
}
