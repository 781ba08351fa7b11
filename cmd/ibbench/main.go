// Command ibbench is the hot-path benchmark runner: one table of grids
// timed into one report schema, invisiblebits/bench/v8, with the host
// shape. One gate pass runs before any timing, at every width in
// -workers (captureGate, decodeGate); a violation exits non-zero, so a
// report whose certificate keys read true proves the gates ran. Each
// row's baseline is the older implementation it replaced, timed in the
// same process; the retired scalar capture engine's column is joined by
// row name from BENCH_6.json instead of re-run.
//
// Usage:
//
//	ibbench -workers 1,2 -o BENCH_8.json # full table (default widths: 1 and GOMAXPROCS)
//	ibbench -grid capture,votes-into     # a subset of the table
//	ibbench -quick -workers 1,2,4        # CI: every gate, minimal grid points
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"invisiblebits/internal/ioatomic"
)

// row is one timed grid point at one worker width (0: width-free).
type row struct {
	Grid        string             `json:"grid"`
	Name        string             `json:"name"`
	Workers     int                `json:"workers,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      int64              `json:"bytes_per_op"`
	AllocsOp    int64              `json:"allocs_per_op"`
	BaseNsPerOp float64            `json:"baseline_ns_per_op,omitempty"`
	BaseSource  string             `json:"baseline_source,omitempty"`
	Speedup     float64            `json:"speedup_vs_baseline,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick,omitempty"`
	Workers    []int  `json:"workers"`
	// Certificates: written only after the gate pass has succeeded.
	CapturesBitIdentical bool  `json:"captures_bit_identical"`
	DecodeBitIdentical   bool  `json:"decode_bit_identical"`
	WarmDecodeZeroAlloc  bool  `json:"warm_decode_zero_alloc"`
	Rows                 []row `json:"rows"`
}

type grid struct {
	name string
	run  func(e *env) ([]row, error)
}

// table lists every grid. A grid times each point at every width in
// -workers or, if width-free, once (Workers 0).
var table = []grid{
	{"capture", captureGrid},
	{"power-on", powerOnGrid},
	{"stress", stressGrid},
	{"prune-ratio", pruneGrid},
	{"votes-into", votesIntoGrid},
	{"decode-tail", decodeTailGrid},
	{"votes-tail", votesTailGrid},
	{"decode-workers", decodeWorkersGrid},
	{"sweep-stats", sweepStatsGrid},
	{"sched", schedGrid},
}

// env is what a grid sees: the table size (grid points, per-row timing
// budget) and the worker widths.
type env struct {
	quick    bool
	benchD   time.Duration
	sizes    []size
	captures []int
	widths   []int
}

type size struct {
	name  string
	bytes int
}

// newEnv sizes the table: the full grid, or the quick one CI runs.
func newEnv(quick bool, widths []int) *env {
	if quick {
		return &env{true, 10 * time.Millisecond, []size{{"4KiB", 4 << 10}}, []int{5}, widths}
	}
	return &env{false, time.Second, []size{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}}, []int{5, 25}, widths}
}

// measure times run(n), n back-to-back operations, after one warm-up,
// growing n until a round lasts the budget (like testing.Benchmark);
// the row holds per-operation time and heap traffic.
func (e *env) measure(run func(n int) error) (row, error) {
	if err := run(1); err != nil {
		return row{}, err
	}
	for n := 1; ; {
		r, err := heapTimed(n, func() error { return run(n) })
		if err != nil || time.Duration(r.NsPerOp*float64(n)) >= e.benchD || n >= 1e9 {
			return r, err
		}
		n = min(max(int(1.2*float64(e.benchD.Nanoseconds())/max(r.NsPerOp, 1)), n+1), 100*n)
	}
}

// heapTimed runs f once and returns its wall time and heap traffic
// divided over the n operations it performed.
func heapTimed(n int, f func() error) (row, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return row{
		NsPerOp:  float64(el.Nanoseconds()) / float64(n),
		BPerOp:   int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n),
		AllocsOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
	}, err
}

// loop adapts a single operation to measure's n-operation form.
func loop(op func() error) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// timed measures op and, when base is set, its baseline — the row's
// retained older implementation — into one row.
func (e *env) timed(name string, workers int, op, base func() error, baseSrc string) (row, error) {
	r, err := e.measure(loop(op))
	if err != nil {
		return row{}, fmt.Errorf("%s: %w", name, err)
	}
	r.Name, r.Workers = name, workers
	if base != nil {
		b, err := e.measure(loop(base))
		if err != nil {
			return row{}, fmt.Errorf("%s baseline: %w", name, err)
		}
		r.BaseNsPerOp, r.BaseSource, r.Speedup = b.NsPerOp, baseSrc, b.NsPerOp/r.NsPerOp
	}
	return r, nil
}

// run executes the gate pass, then the given grids, and returns the
// report. Any gate failure is an error; no grid runs after it.
func run(e *env, grids []grid, log io.Writer) (*report, error) {
	if err := captureGate(e.widths); err != nil {
		return nil, fmt.Errorf("capture gate: %w", err)
	}
	fmt.Fprintf(log, "capture gates passed at workers %v: kernel == reference, zero-alloc bursts, aging within float rounding\n", e.widths)
	if err := decodeGate(); err != nil {
		return nil, fmt.Errorf("decode gate: %w", err)
	}
	fmt.Fprintln(log, "decode gates passed: pipeline == scalar, warm decodes allocate nothing")

	rep := &report{
		Schema:               "invisiblebits/bench/v8",
		GoVersion:            runtime.Version(),
		GOOS:                 runtime.GOOS,
		GOARCH:               runtime.GOARCH,
		NumCPU:               runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Quick:                e.quick,
		Workers:              e.widths,
		CapturesBitIdentical: true,
		DecodeBitIdentical:   true,
		WarmDecodeZeroAlloc:  true,
	}
	for _, g := range grids {
		rows, err := g.run(e)
		if err != nil {
			return nil, fmt.Errorf("%s grid: %w", g.name, err)
		}
		for i, r := range rows {
			rows[i].Grid = g.name
			fmt.Fprintf(log, "%-14s %-40s %14.0f ns/op %4d allocs %8.2fx %s\n",
				g.name, r.Name, r.NsPerOp, r.AllocsOp, r.Speedup, r.BaseSource)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

func main() {
	defaultWorkers := fmt.Sprintf("1,%d", runtime.GOMAXPROCS(0)) // duplicates collapse
	var names []string
	for _, g := range table {
		names = append(names, g.name)
	}
	var (
		out      = flag.String("o", "BENCH_8.json", "output path for the benchmark report")
		workers  = flag.String("workers", defaultWorkers, "comma-separated worker widths; every gate and every per-width grid runs at each")
		quick    = flag.Bool("quick", false, "CI smoke: every gate, minimal grid points, short timings, no headline gates")
		gridList = flag.String("grid", "all", "comma-separated grids to time: all, or any of "+strings.Join(names, ", "))
	)
	flag.Parse()
	var widths []int
	for _, f := range strings.Split(*workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fail(fmt.Errorf("bad worker count %q", f))
		}
		if !slices.Contains(widths, n) {
			widths = append(widths, n)
		}
	}
	grids := table
	if *gridList != "all" {
		grids = nil
		for _, name := range strings.Split(*gridList, ",") {
			i := slices.Index(names, name)
			if i < 0 {
				fail(fmt.Errorf("unknown grid %q", name))
			}
			grids = append(grids, table[i])
		}
	}
	rep, err := run(newEnv(*quick, widths), grids, os.Stdout)
	if err != nil {
		fail(err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := ioatomic.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Println("wrote", *out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ibbench:", err)
	os.Exit(1)
}
