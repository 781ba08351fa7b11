// Package flash models on-chip NOR Flash at the fidelity the paper's
// comparison baselines require (§5.3, §8): digital page-erase/program
// semantics plus the two analog side channels prior work hides data in —
// per-cell *program time* (Wang et al., "Hiding Information in Flash
// Memory") and per-cell *threshold-voltage level* (Zuck et al., "Stash in
// a Flash").
//
// Digital behaviour: erase sets a page's bits to 1; programming can only
// clear bits (1→0); programming a 0 bit again is a no-op. The device's
// firmware image lives here too ("the instructions ... run from
// non-volatile memory", §4.2), loaded through the debugger interface.
//
// Analog behaviour per bit cell:
//
//   - ProgramTime: lognormal with a long tail. Program/erase cycling
//     (wear) increases it measurably — Wang et al. encode a hidden bit by
//     deliberately cycling a group of cells and decode by comparing the
//     group's mean program time against its neighbours.
//   - Vt: erased cells sit at a low threshold voltage, programmed cells
//     at a high one with spread. Zuck et al. over-charge selected
//     already-programmed cells to a second, higher level that reads
//     identically at the digital reference but is separable with a margin
//     read.
//
// Both side channels are destroyed by an erase (or re-program) of the
// page — the fragility Invisible Bits' Table 3 contrasts against.
//
// Analog state is kept per page and built the first time an analog
// operation (erase, wear, programming a bit, a program-time measurement,
// overcharge, margin read) touches the page; digital reads never build
// one. A page built late takes exactly the values an eager build of the
// whole array would have drawn for its bits, so device identity does not
// depend on which pages were touched or in what order. Most arrays only
// ever build the few firmware pages at the bottom of flash.
package flash

import (
	"errors"
	"fmt"
	"math"

	"invisiblebits/internal/rng"
)

// Spec sizes and parameterizes a Flash array.
type Spec struct {
	PageBytes int
	Pages     int
	// ProgramTimeMeanUs and ProgramTimeSigma parameterize the lognormal
	// per-cell program time (sigma is the log-domain std dev).
	ProgramTimeMeanUs float64
	ProgramTimeSigma  float64
	// WearSlowdownUsPerCycle is the program-time increase per P/E cycle.
	WearSlowdownUsPerCycle float64
	// Threshold-voltage levels (volts).
	VtErased, VtProgrammed, VtOvercharged float64
	// VtSigma is the per-program spread of the reached level.
	VtSigma float64
	// MeasureNoiseUs and MeasureNoiseV are per-measurement noises.
	MeasureNoiseUs float64
	MeasureNoiseV  float64
	// Seed fixes the per-cell variation pattern (device identity).
	Seed uint64
}

// DefaultSpec returns a 256 KB (512-byte × 512-page) device-class array.
func DefaultSpec() Spec {
	return Spec{
		PageBytes:              512,
		Pages:                  512,
		ProgramTimeMeanUs:      60,
		ProgramTimeSigma:       0.10,
		WearSlowdownUsPerCycle: 0.02,
		VtErased:               1.0,
		VtProgrammed:           4.5,
		VtOvercharged:          5.6,
		VtSigma:                0.15,
		MeasureNoiseUs:         0.5,
		MeasureNoiseV:          0.05,
		Seed:                   1,
	}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.PageBytes <= 0 || s.Pages <= 0:
		return fmt.Errorf("flash: non-positive geometry %dx%d", s.Pages, s.PageBytes)
	case s.ProgramTimeMeanUs <= 0 || s.ProgramTimeSigma < 0:
		return errors.New("flash: bad program-time parameters")
	case s.VtOvercharged <= s.VtProgrammed || s.VtProgrammed <= s.VtErased:
		return errors.New("flash: Vt levels must be ordered erased < programmed < overcharged")
	case s.WearSlowdownUsPerCycle < 0 || s.MeasureNoiseUs < 0 || s.MeasureNoiseV < 0:
		return errors.New("flash: negative noise/wear parameters")
	}
	return nil
}

// Array is a simulated NOR Flash. Its digital contents are held flat;
// its analog state (program time and Vt per bit) is held per page and
// built on first touch from the identity stream.
type Array struct {
	spec Spec
	data []byte // digital contents

	pages    []analogPage // per-page analog state, built on first touch
	peCycles []uint32     // per-page program/erase count

	// The identity stream draws one Norm per bit, pages in order. vary
	// is positioned at the start of page varyPage; every earlier page
	// has recorded its start state.
	vary     rng.Source
	varyPage int

	noise *rng.Source
}

// analogPage is one page's analog state, indexed by bit within the page.
type analogPage struct {
	start      rng.Source // identity stream state at the page's first bit
	progTimeUs []float32  // intrinsic program time, plus wear; nil until built
	vt         []float32  // current threshold voltage
}

// New builds a fully erased array. No analog state is drawn yet.
func New(spec Spec) (*Array, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		spec:     spec,
		data:     make([]byte, spec.PageBytes*spec.Pages),
		pages:    make([]analogPage, spec.Pages),
		peCycles: make([]uint32, spec.Pages),
	}
	seedSrc := rng.NewSource(spec.Seed)
	a.vary = *seedSrc.Split()
	a.noise = seedSrc.Split()
	for i := range a.data {
		a.data[i] = 0xFF // erased state reads all-1s
	}
	return a, nil
}

// page returns page p's analog state, building it on first touch. The
// identity stream is stepped forward through every earlier page not yet
// passed (raw draws only, see rng.SkipNorm), recording each page's start
// state, so page p gets the draws an eager in-order build would give it.
func (a *Array) page(p int) *analogPage {
	pg := &a.pages[p]
	if pg.progTimeUs != nil {
		return pg
	}
	bits := a.spec.PageBytes * 8
	for ; a.varyPage <= p; a.varyPage++ {
		a.pages[a.varyPage].start = a.vary
		a.vary.SkipNorm(bits)
	}
	src := pg.start
	pg.progTimeUs, pg.vt = make([]float32, bits), make([]float32, bits)
	for i := range pg.progTimeUs {
		pg.progTimeUs[i] = float32(a.spec.ProgramTimeMeanUs *
			math.Exp(src.NormScaled(0, a.spec.ProgramTimeSigma)))
		pg.vt[i] = float32(a.spec.VtErased)
	}
	return pg
}

// cell returns the page state holding bit and the bit's index within it.
func (a *Array) cell(bit int) (*analogPage, int) {
	bits := a.spec.PageBytes * 8
	return a.page(bit / bits), bit % bits
}

func (a *Array) checkBit(bit int) error {
	if bit < 0 || bit >= len(a.data)*8 {
		return fmt.Errorf("flash: bit %d out of range", bit)
	}
	return nil
}

// Spec returns the construction parameters.
func (a *Array) Spec() Spec { return a.spec }

// Bytes returns the capacity in bytes.
func (a *Array) Bytes() int { return len(a.data) }

func (a *Array) checkRange(off, n int) error {
	if off < 0 || off+n > len(a.data) {
		return fmt.Errorf("flash: access [%d,%d) out of range of %d bytes", off, off+n, len(a.data))
	}
	return nil
}

// Read copies n bytes starting at off.
func (a *Array) Read(off, n int) ([]byte, error) {
	if err := a.checkRange(off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, a.data[off:off+n])
	return out, nil
}

// ByteAt returns a single byte.
func (a *Array) ByteAt(off int) (byte, error) {
	if err := a.checkRange(off, 1); err != nil {
		return 0, err
	}
	return a.data[off], nil
}

// ErasePage resets a page to all-1s, clears its analog levels, and counts
// a P/E cycle (wearing the page's cells). Any hidden data riding on the
// page's analog state is destroyed.
func (a *Array) ErasePage(page int) error {
	if page < 0 || page >= a.spec.Pages {
		return fmt.Errorf("flash: page %d out of range", page)
	}
	base := page * a.spec.PageBytes
	for i := 0; i < a.spec.PageBytes; i++ {
		a.data[base+i] = 0xFF
	}
	vt := a.page(page).vt
	for b := range vt {
		vt[b] = float32(a.spec.VtErased)
	}
	a.wearPage(page, 1)
	return nil
}

// wearPage applies n P/E cycles of program-time slowdown to every cell of
// the page.
func (a *Array) wearPage(page, n int) {
	a.peCycles[page] += uint32(n)
	slow := float32(a.spec.WearSlowdownUsPerCycle * float64(n))
	pt := a.page(page).progTimeUs
	for b := range pt {
		pt[b] += slow
	}
}

// Program writes data at off with NOR semantics: only 1→0 transitions
// take effect. Bits actually programmed acquire the programmed Vt level
// (with spread). It returns the per-byte simulated program time in µs
// (the sum over programmed bits), which the Wang baseline measures.
func (a *Array) Program(off int, data []byte) (totalTimeUs float64, err error) {
	if err := a.checkRange(off, len(data)); err != nil {
		return 0, err
	}
	for i, b := range data {
		old := a.data[off+i]
		a.data[off+i] = old & b
		cleared := old &^ b // bits going 1→0
		if cleared == 0 {
			continue
		}
		pg, base := a.cell((off + i) * 8)
		for k := 0; k < 8; k++ {
			if cleared&(1<<k) != 0 {
				bit := base + k
				totalTimeUs += float64(pg.progTimeUs[bit]) +
					a.noise.NormScaled(0, a.spec.MeasureNoiseUs)
				pg.vt[bit] = float32(a.noise.NormScaled(a.spec.VtProgrammed, a.spec.VtSigma))
			}
		}
	}
	return totalTimeUs, nil
}

// CyclePage deliberately stresses a page with n program/erase cycles
// without changing its final (erased) digital contents — the Wang et al.
// encoding knob.
func (a *Array) CyclePage(page, n int) error {
	if page < 0 || page >= a.spec.Pages {
		return fmt.Errorf("flash: page %d out of range", page)
	}
	if n < 0 {
		return errors.New("flash: negative cycle count")
	}
	a.wearPage(page, n)
	return nil
}

// CycleBits stresses an arbitrary set of bit indices with n extra P/E
// cycles each (finer grain than CyclePage, used by the group-of-128
// encoding of the Wang baseline).
func (a *Array) CycleBits(bits []int, n int) error {
	if n < 0 {
		return errors.New("flash: negative cycle count")
	}
	slow := float32(a.spec.WearSlowdownUsPerCycle * float64(n))
	for _, b := range bits {
		if err := a.checkBit(b); err != nil {
			return err
		}
		pg, i := a.cell(b)
		pg.progTimeUs[i] += slow
	}
	return nil
}

// MeasureProgramTime programs a scratch pattern conceptually and reports
// the (noisy) program time of one bit cell without altering digital
// contents — the decode-side measurement of the Wang baseline.
func (a *Array) MeasureProgramTime(bit int) (float64, error) {
	if err := a.checkBit(bit); err != nil {
		return 0, err
	}
	pg, i := a.cell(bit)
	return float64(pg.progTimeUs[i]) + a.noise.NormScaled(0, a.spec.MeasureNoiseUs), nil
}

// Overcharge pushes an already-programmed (0) bit to the higher Vt level
// — the Zuck et al. encoding primitive. Overcharging an erased bit is an
// error: it would flip the digital value and reveal the channel.
func (a *Array) Overcharge(bit int) error {
	if err := a.checkBit(bit); err != nil {
		return err
	}
	if a.data[bit/8]&(1<<(bit%8)) != 0 {
		return fmt.Errorf("flash: bit %d is erased; overcharge would corrupt public data", bit)
	}
	pg, i := a.cell(bit)
	pg.vt[i] = float32(a.noise.NormScaled(a.spec.VtOvercharged, a.spec.VtSigma))
	return nil
}

// MarginRead returns a noisy threshold-voltage measurement for a bit —
// the decode-side primitive of the Zuck baseline.
func (a *Array) MarginRead(bit int) (float64, error) {
	if err := a.checkBit(bit); err != nil {
		return 0, err
	}
	pg, i := a.cell(bit)
	return float64(pg.vt[i]) + a.noise.NormScaled(0, a.spec.MeasureNoiseV), nil
}

// PECycles reports a page's program/erase count.
func (a *Array) PECycles(page int) (uint32, error) {
	if page < 0 || page >= a.spec.Pages {
		return 0, fmt.Errorf("flash: page %d out of range", page)
	}
	return a.peCycles[page], nil
}
