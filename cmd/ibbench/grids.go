package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/campaign"
	"invisiblebits/internal/core"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/sched"
	"invisiblebits/internal/sram"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
)

var noiseGens = []struct {
	name string
	gen  int
}{{"bm", sram.NoiseGenBoxMuller}, {"zig", sram.NoiseGenZiggurat}}

// priorColumn reads column field of every named row in any checked-in
// BENCH report, keyed by row name; fields that are not row arrays are
// skipped, and a missing file yields no joins.
func priorColumn(path, field string) map[string]float64 {
	var prior map[string][]map[string]any
	blob, _ := os.ReadFile(path)     // no file: Unmarshal fails, nothing joins
	_ = json.Unmarshal(blob, &prior) // type errors skip scalar fields, rows still decode
	col := map[string]float64{}
	for _, rows := range prior {
		for _, r := range rows {
			if name, ok := r["name"].(string); ok {
				if v, ok := r[field].(float64); ok {
					col[name] = v
				}
			}
		}
	}
	return col
}

// arrayPoint is one SRAM grid point: op is timed on a fresh array at
// every width, base (if set) on a fresh 1-worker array of that shape.
type arrayPoint struct {
	name       string
	bytes, gen int
	soak       float64 // imprint hours before timing
	op, base   func(a *sram.Array) error
	baseSrc    string
	extra      func(a *sram.Array) (map[string]float64, error)
}

func (e *env) arrayRows(pts []arrayPoint) ([]row, error) {
	var rows []row
	for _, pt := range pts {
		for _, w := range e.widths {
			a := mustArray(pt.bytes, w, pt.gen)
			if err := imprint(a, pt.soak); err != nil {
				return nil, err
			}
			var base func() error
			if pt.base != nil {
				ref := mustArray(pt.bytes, 1, pt.gen)
				base = func() error { return pt.base(ref) }
			}
			r, err := e.timed(fmt.Sprintf("%s/%dw", pt.name, w), w, func() error { return pt.op(a) }, base, pt.baseSrc)
			if err == nil && pt.extra != nil {
				r.Extra, err = pt.extra(a)
			}
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func captureVotes(captures int) func(a *sram.Array) error {
	return func(a *sram.Array) error { _, err := a.CaptureVotes(captures, 25); return err }
}

// captureGrid: size × captures × noise generation through the kernel,
// against the serial reference engine.
func captureGrid(e *env) ([]row, error) {
	var pts []arrayPoint
	for _, sz := range e.sizes {
		for _, captures := range e.captures {
			for _, g := range noiseGens {
				pts = append(pts, arrayPoint{
					name: fmt.Sprintf("%s/%dcap/%s", sz.name, captures, g.name), bytes: sz.bytes, gen: g.gen,
					op:      captureVotes(captures),
					base:    func(a *sram.Array) error { _, err := a.CaptureVotesReference(captures, 25); return err },
					baseSrc: "sram.CaptureVotesReference",
				})
			}
		}
	}
	rows, err := e.arrayRows(pts)
	scalar := priorColumn("BENCH_6.json", "scalar_ns_per_op")
	for i, r := range rows {
		if v, ok := scalar[r.Name]; ok {
			rows[i].Extra = map[string]float64{"bench6_scalar_ns_per_op": v}
		}
	}
	return rows, err
}

// powerOnGrid: full power-cycle races against PowerOnReference.
func powerOnGrid(e *env) ([]row, error) {
	var pts []arrayPoint
	for _, sz := range e.sizes {
		for _, g := range noiseGens {
			pts = append(pts, arrayPoint{
				name: sz.name + "/" + g.name, bytes: sz.bytes, gen: g.gen,
				op:      func(a *sram.Array) error { _, err := a.PowerCycle(25); return err },
				base:    func(a *sram.Array) error { a.PowerOff(true); _, err := a.PowerOnReference(25); return err },
				baseSrc: "sram.PowerOnReference",
			})
		}
	}
	return e.arrayRows(pts)
}

// stressGrid: the aging hot loop against per-cell GrowShift aging.
func stressGrid(e *env) ([]row, error) {
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	var pts []arrayPoint
	for _, sz := range e.sizes {
		pts = append(pts, arrayPoint{
			name: sz.name + "/stress", bytes: sz.bytes, gen: sram.NoiseGenZiggurat,
			op:      func(a *sram.Array) error { return a.Stress(cond, 0.1) },
			base:    func(a *sram.Array) error { return a.StressReference(cond, 0.1) },
			baseSrc: "sram.StressReference",
		})
	}
	return e.arrayRows(pts)
}

// pruneGrid: capture cost against imprint depth. Clean silicon already
// resolves ~75% of cells without noise draws; encoding soaks push the
// fraction toward 1 and the burst toward pure memory traffic.
func pruneGrid(e *env) ([]row, error) {
	sz, captures, soaks := size{"64KiB", 64 << 10}, 25, []float64{0, 1, 10}
	if e.quick {
		sz, captures, soaks = size{"4KiB", 4 << 10}, 5, []float64{0, 10}
	}
	var pts []arrayPoint
	for _, soak := range soaks {
		pts = append(pts, arrayPoint{
			name: fmt.Sprintf("%s/%dcap/soak%vh", sz.name, captures, soak), bytes: sz.bytes,
			gen: sram.NoiseGenZiggurat, soak: soak, op: captureVotes(captures),
			extra: func(a *sram.Array) (map[string]float64, error) {
				frac, err := a.DeterministicFrac(25)
				return map[string]float64{"prune_frac": frac}, err
			},
		})
	}
	return e.arrayRows(pts)
}

// votesIntoGrid: the receiver's steady-state decode loop — one array,
// one reused vote buffer, burst after burst. captureGate has already
// required these bursts to allocate nothing at every width.
func votesIntoGrid(e *env) ([]row, error) {
	var pts []arrayPoint
	for _, sz := range e.sizes {
		votes := make([]uint16, sz.bytes*8)
		for _, captures := range e.captures {
			pts = append(pts, arrayPoint{
				name: fmt.Sprintf("%s/%dcap/votes-into", sz.name, captures), bytes: sz.bytes, gen: sram.NoiseGenZiggurat,
				op: func(a *sram.Array) error { return a.CaptureVotesInto(context.Background(), captures, 25, votes) },
			})
		}
	}
	return e.arrayRows(pts)
}

// decodeTailGrid: codec × payload size through the compiled pipeline,
// against ecc.DecodeScalar on the same ~1%-corrupted payload. Full runs
// gate the interleaved stack on 64 KiB at ≥ 5×.
func decodeTailGrid(e *env) ([]row, error) {
	src := rng.NewSource(benchSeed + 3)
	var rows []row
	for i, codec := range decodeCodecs() {
		for _, sz := range e.sizes {
			msgBytes := 1
			for codec.EncodedLen(msgBytes+1) <= sz.bytes {
				msgBytes++
			}
			msg := make([]byte, msgBytes)
			src.Bytes(msg)
			payload, err := codec.Encode(msg)
			if err != nil {
				return nil, err
			}
			for f := 0; f < len(payload)/100; f++ {
				bit := src.Intn(len(payload) * 8)
				payload[bit/8] ^= 1 << (bit % 8)
			}
			p, dst := ecc.NewPipeline(codec), make([]byte, msgBytes)
			r, err := e.timed(fmt.Sprintf("%s/%s/pipeline", sz.name, codec.Name()), 0,
				func() error { return p.DecodeInto(dst, payload, msgBytes) },
				func() error { _, err := ecc.DecodeScalar(codec, payload, msgBytes); return err },
				"ecc.DecodeScalar")
			if err != nil {
				return nil, err
			}
			if !e.quick && i == 2 && sz.bytes == 64<<10 && r.Speedup < 5 { // the interleaved stack
				return nil, fmt.Errorf("headline gate: %s speedup %.2fx, need >= 5x", r.Name, r.Speedup)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// votesTailGrid: the full arena tail — votes to verified plaintext —
// against the scalar tail.
func votesTailGrid(e *env) ([]row, error) {
	key := stegocrypt.KeyFromPassphrase("bench7-votes")
	codec := decodeCodecs()[2]
	var rows []row
	for _, sz := range e.sizes {
		rec, votes, opts, err := decodeRig("bench7-votes-"+sz.name, sz.bytes, codec, &key)
		if err != nil {
			return nil, err
		}
		arena := core.NewDecodeArena()
		r, err := e.timed(fmt.Sprintf("%s/%s/arena-votes-tail", sz.name, codec.Name()), 0,
			func() error { _, err := arena.DecodeVotes(rec, votes, core.DefaultCaptures, opts); return err },
			func() error { _, err := core.DecodeVotesScalar(rec, votes, core.DefaultCaptures, opts); return err },
			"core.DecodeVotesScalar")
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// decodeWorkersGrid: a fleet receiver decoding captures on w
// goroutines, one arena each; ns/op is per decoded capture.
func decodeWorkersGrid(e *env) ([]row, error) {
	key := stegocrypt.KeyFromPassphrase("bench7-votes")
	codec := decodeCodecs()[2]
	sz := e.sizes[len(e.sizes)-1]
	rec, votes, opts, err := decodeRig("bench7-workers", sz.bytes, codec, &key)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, w := range e.widths {
		r, err := e.measure(func(n int) error {
			errs := make(chan error, w)
			for g := 0; g < w; g++ {
				go func(g int) {
					o := opts
					o.Arena = core.NewDecodeArena()
					var err error
					for i := g; i < n && err == nil; i += w {
						_, err = o.Arena.DecodeVotes(rec, votes, core.DefaultCaptures, o)
					}
					errs <- err
				}(g)
			}
			var err error
			for g := 0; g < w; g++ {
				err = errors.Join(err, <-errs)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		r.Name, r.Workers = fmt.Sprintf("%s/%s/%dw", sz.name, codec.Name(), w), w
		rows = append(rows, r)
	}
	return rows, nil
}

// sweepStatsGrid: the fleet-sweep statistics — packed Moran's I against
// the expanded-plane oracle, and vote-histogram health aggregation
// against the per-cell loop. Full runs gate packed Moran at ≥ 10×.
func sweepStatsGrid(e *env) ([]row, error) {
	sz := e.sizes[len(e.sizes)-1]
	snap := make([]byte, sz.bytes)
	rng.NewSource(benchSeed + 4).Bytes(snap)
	nrows, cols := 256, len(snap)*8/256
	moran, err := e.timed(sz.name+"/moran-i/packed", 0,
		func() error { _, err := stats.MoranIPacked(snap, nrows, cols); return err },
		func() error { _, err := stats.MoranIBits(expandPlane(snap), nrows, cols); return err },
		"stats.MoranIBits")
	if err != nil {
		return nil, err
	}
	if !e.quick && moran.Speedup < 10 {
		return nil, fmt.Errorf("headline gate: packed Moran speedup %.2fx, need >= 10x", moran.Speedup)
	}

	const captures = 15
	votes := make([]uint16, len(snap)*8)
	vsrc := rng.NewSource(benchSeed + 5)
	for i := range votes {
		votes[i] = uint16(vsrc.Intn(captures + 1))
	}
	// Both loops publish their sums so neither can be optimized away.
	var sumM, sumH float64
	var weak int
	tab := stats.NewVoteTable(captures)
	hist := make([]int, captures+1)
	health, err := e.timed(sz.name+"/health-margin/histogram", 0,
		func() error {
			tab.Histogram(votes, hist)
			sumM, sumH, weak = 0, 0, 0
			for v, c := range hist {
				sumM += float64(c) * tab.Margin[v]
				sumH += float64(c) * tab.Entropy[v]
				if tab.Margin[v] < rig.WeakCellMargin {
					weak += c
				}
			}
			return nil
		},
		func() error {
			sumM, sumH, weak = 0, 0, 0
			for _, v := range votes {
				p := float64(v) / captures
				m := math.Abs(2*p - 1)
				sumM += m
				sumH += stats.BitEntropy(p)
				if m < rig.WeakCellMargin {
					weak++
				}
			}
			return nil
		},
		"per-cell loop")
	return []row{moran, health}, err
}

// schedGrid: the multi-tenant scheduler draining N one-board MSP430G2553
// campaigns (one 2.5 h slice each, shared operating point, journal
// NoSync), batching on and off; ns/op is wall time per campaign. The
// scheduler keeps finished campaigns' carriers (~0.5 GB per 1k tenants),
// so the table stops at 3k: BENCH_5's 10k does not fit an 8 GB host.
func schedGrid(e *env) ([]row, error) {
	tenancy := []int{1000, 3000}
	if e.quick {
		tenancy = []int{24}
	}
	var rows []row
	for _, n := range tenancy {
		var pair [2]row // batched, unbatched
		for i := range pair {
			var err error
			if pair[i], err = schedRun(n, i == 0); err != nil {
				return nil, err
			}
		}
		pair[0].Extra["chamber_hours_saved_frac"] = 1 - pair[0].Extra["chamber_hours"]/pair[1].Extra["chamber_hours"]
		rows = append(rows, pair[:]...)
	}
	return rows, nil
}

// schedRun drains one scheduler behind an admission barrier: the first
// slot bootstrap (the first pass holds only the first campaign) blocks
// in InjectorFor until every submission is admitted, so the second pass
// plans over the whole queue and chamber-hours and passes reproduce.
func schedRun(tenants int, batching bool) (row, error) {
	dir, err := os.MkdirTemp("", "ibbench-sched-")
	if err != nil {
		return row{}, err
	}
	defer os.RemoveAll(dir)
	key := stegocrypt.KeyFromPassphrase("ibbench-sched")
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s, err := sched.New(dir, sched.Config{
		KeyFor:          func(string, string) *stegocrypt.Key { return &key },
		MaxQueued:       tenants,
		DisableBatching: !batching,
		NoSync:          true,
		InjectorFor: func(string) faults.Injector {
			once.Do(func() { close(entered) })
			<-release
			return nil
		},
	})
	if err != nil {
		return row{}, err
	}
	r, err := heapTimed(tenants, func() error {
		for i := 0; i < tenants; i++ {
			err := s.Submit(sched.Submission{
				Tenant: fmt.Sprintf("tenant-%05d", i),
				Spec: campaign.Spec{
					ID:          fmt.Sprintf("bench-%05d", i),
					Model:       "MSP430G2553",
					Serials:     []string{fmt.Sprintf("bch%05d", i)},
					Message:     []byte("bench payload"),
					StressHours: 2.5,
					SliceHours:  2.5,
				},
			})
			if err != nil {
				return fmt.Errorf("submit %d: %w", i, err)
			}
			if i == 0 {
				<-entered
			}
		}
		releaseOnce()
		return s.Drain(context.Background())
	})
	if err != nil {
		return row{}, err
	}
	st := s.Status()
	if st.Done != tenants || st.Failed != 0 {
		return row{}, fmt.Errorf("%d tenants: finished %d campaigns (%d failed)", tenants, st.Done, st.Failed)
	}
	r.Name = fmt.Sprintf("%dt/batched", tenants)
	if !batching {
		r.Name = fmt.Sprintf("%dt/unbatched", tenants)
	}
	r.Extra = map[string]float64{
		"chamber_hours":              st.ChamberHours,
		"passes":                     float64(st.Passes),
		"batched_slices":             float64(st.BatchedSlices),
		"campaigns_per_chamber_hour": st.CampaignsPerChamberHour,
		"latency_p50_hours":          st.LatencyP50,
		"latency_p99_hours":          st.LatencyP99,
	}
	return r, nil
}
