// Command perfbench is the repository benchmark: three workloads
// (drain, serve, reveal) that each load a different set of the
// simulator's layers, end-to-end metrics from untraced runs and
// per-layer metrics from a separate traced run. See README.md for the
// workloads, the metric definitions and which layer metric is meant to
// move which end-to-end metric.
//
//	perfbench --workload drain --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every operation's plaintext
// is compared byte for byte before any number counts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run builds its set-up state;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 3

// workload is one benchmark workload. setup builds fresh state under
// dir (including warm-up operations, so lazy state is built before
// timing); timed runs operations until the deadline; layers adds the
// workload's own per-layer metrics after a traced region.
type workload interface {
	setup(ctx context.Context, dir string) error
	timed(ctx context.Context, tr *tracer, until time.Time, log *opLog) error
	layers(m metricSet, sum map[string]*spanSummary, io [3]classStats, ops int)
	probe() probeSpec
	// tail is the percentile bench.op_ms_tail reports. It is fixed per
	// workload, so that a faster program cannot change which percentile
	// is read; each run checks the percentile rule against it.
	tail() float64
	// fs is the timing filesystem under the workload's scheduler, or
	// nil when the workload has none.
	fs() *timingFS
	teardown()
}

// opLog records the timed operations of one region.
type opLog struct {
	attempted int
	failed    int
	latMs     []float64 // per verified operation
	// marks holds one slice per contiguous part of the region: its
	// start, then one mark after each operation (each batch in drain).
	// Time between parts (a serve service restart) is not measured.
	marks [][]mark
	// firstErr is the first failure, for the report.
	firstErr error
}

// mark is a point in a timed region: wall time, process CPU time and
// verified operations so far.
type mark struct {
	at  time.Time
	cpu time.Duration
	ops int
}

func (l *opLog) begin() { l.marks = append(l.marks, []mark{{time.Now(), cpuTime(), len(l.latMs)}}) }

func (l *opLog) mark() {
	last := len(l.marks) - 1
	l.marks[last] = append(l.marks[last], mark{time.Now(), cpuTime(), len(l.latMs)})
}

// The throughput and CPU metrics are medians over up to maxWindows
// windows of a timed region, which discards windows in which the host
// ran other work. A window holds at least minWindowOps operations, so
// a slow closed loop is not cut into windows of a few operations each.
// Many short windows (reveal: about 0.1 s each) keep a burst of other
// work on the host inside a few windows instead of spreading it over
// all of them.
const (
	maxWindows   = 256
	minWindowOps = 20
)

// windowed splits each part of the marks into windows of equal mark
// count and returns each window's verified operations per second and
// CPU ms per operation.
func windowed(parts [][]mark) (rates, cpuMs []float64) {
	total, ops := 0, 0
	for _, p := range parts {
		total += len(p) - 1
		ops += p[len(p)-1].ops - p[0].ops
	}
	windows := min(maxWindows, max(1, ops/minWindowOps))
	for _, p := range parts {
		n := len(p) - 1
		if n <= 0 {
			continue
		}
		w := min(n, max(1, (windows*n+total/2)/total))
		for k := 0; k < w; k++ {
			a, b := p[k*n/w], p[(k+1)*n/w]
			ops := b.ops - a.ops
			if ops <= 0 {
				continue
			}
			rates = append(rates, float64(ops)/b.at.Sub(a.at).Seconds())
			cpuMs = append(cpuMs, float64((b.cpu-a.cpu).Microseconds())/1e3/float64(ops))
		}
	}
	return rates, cpuMs
}

func (l *opLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// metricSet maps a metric name to its value and unit.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric; a value with no defined result (a median of
// nothing) is reported as 0.
func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: drain, serve or reveal")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "timed seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "drain":
		return newDrain(seed), nil
	case "serve":
		return newServe(seed), nil
	case "reveal":
		return newReveal(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want drain, serve or reveal)", name)
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	state, err := filepath.Abs(filepath.Join(".bench_state", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(state)
	defer w.teardown()

	fmt.Printf("# env go=%s num_cpu=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), name, seed, seconds, traced)
	ctx := context.Background()
	budget := time.Duration(seconds * float64(time.Second))

	if !traced {
		var setups []float64
		for i := 0; i < setupReps; i++ {
			if i > 0 {
				w.teardown()
			}
			dir := filepath.Join(state, fmt.Sprintf("setup-%d", i))
			start := time.Now()
			if err := w.setup(ctx, dir); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		settle()
		var log opLog
		if err := w.timed(ctx, nil, time.Now().Add(budget), &log); err != nil {
			return err
		}
		m := metricSet{}
		m.set("setup_s", "s", median(setups))
		e2e(m, &log)
		fmt.Printf("# setup_s runs=%v\n", setups)
		return emit(m, &log)
	}

	// Traced run: one set-up, an untraced half for the overhead
	// baseline, then a traced half and the layer probe.
	if err := w.setup(ctx, filepath.Join(state, "setup")); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	settle()
	var base opLog
	if err := w.timed(ctx, nil, time.Now().Add(budget/2), &base); err != nil {
		return err
	}
	settle()
	tr := newTracer()
	rt0 := readRuntime()
	if fs := w.fs(); fs != nil {
		fs.snapshot()
	}
	var log opLog
	if err := w.timed(ctx, tr, time.Now().Add(budget/2), &log); err != nil {
		return err
	}
	rt1 := readRuntime()
	var io [3]classStats
	if fs := w.fs(); fs != nil {
		io = fs.snapshot()
	}
	ops := len(log.latMs)
	tr.mu.Lock()
	opSpans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	imageMB, err := runProbe(ctx, tr, w.probe(), filepath.Join(state, "probe"))
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}

	m := metricSet{}
	w.layers(m, summarize(opSpans), io, ops)
	probeLayers(m, summarize(tr.spans[len(opSpans):]), imageMB)
	m.set("runtime.alloc_mb_per_op", "MB/op", perOp((rt1.allocB-rt0.allocB)/1e6, ops))
	if cpu := rt1.cpuTotal - rt0.cpuTotal; cpu > 0 {
		m.set("runtime.gc_cpu_frac", "fraction", (rt1.cpuGC-rt0.cpuGC)/cpu)
	}
	m.set("trace.overhead_frac", "fraction", median(log.latMs)/median(base.latMs)-1)
	m.set("bench.op_self_ms", "ms", opSelf(summarize(opSpans)))
	// The tail takes both halves: serve completes too few campaigns in
	// one half for its percentile, and tracing moves no latency by more
	// than the run-to-run noise (trace.overhead_frac).
	tail, lat := w.tail(), append(append([]float64(nil), base.latMs...), log.latMs...)
	m.set("bench.op_ms_tail", "ms", quantile(lat, tail))
	fmt.Printf("# bench.op_ms_tail is p%g of %d samples\n", 100*tail, len(lat))
	if !ruleHolds(len(lat), tail) {
		fmt.Printf("# warning: fewer than %d samples lie beyond p%g\n", minBeyond, 100*tail)
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m.set(l.name, l.unit, 0) // the workload does not load this layer
		}
	}

	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	out := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(out, tr.spans); err != nil {
		return err
	}
	printSpanTable(summarize(tr.spans))
	fmt.Printf("# spans written to %s; untraced p50 %.3f ms over %d ops, traced p50 %.3f ms over %d ops\n",
		out, median(base.latMs), len(base.latMs), median(log.latMs), ops)
	log.attempted += base.attempted
	log.failed += base.failed
	if log.firstErr == nil {
		log.firstErr = base.firstErr
	}
	return emit(m, &log)
}

// e2e fills the end-to-end metrics from one untraced timed region.
func e2e(m metricSet, log *opLog) {
	ok := len(log.latMs)
	rates, cpuMs := windowed(log.marks)
	m.set("ops_per_s", "1/s", median(rates))
	m.set("op_ms_p50", "ms", median(log.latMs))
	fmt.Printf("# op_ms_p50 of %d samples; p90 %.4g ms, p99 %.4g ms\n", ok, quantile(log.latMs, 0.9), quantile(log.latMs, 0.99))
	m.set("cpu_ms_per_op", "ms", median(cpuMs))
	m.set("rss_peak_mb", "MB", peakRSSMB())
	if log.attempted > 0 {
		m.set("verified_frac", "fraction", float64(ok)/float64(log.attempted))
	}
	fmt.Printf("# ops attempted=%d verified=%d in %d parts; %d windows: ops_per_s p25/p50/p75 %.4g/%.4g/%.4g, cpu_ms_per_op %.4g/%.4g/%.4g\n",
		log.attempted, ok, len(log.marks), len(rates),
		quantile(rates, 0.25), median(rates), quantile(rates, 0.75),
		quantile(cpuMs, 0.25), median(cpuMs), quantile(cpuMs, 0.75))
}

func emit(m metricSet, log *opLog) error {
	if log.firstErr != nil {
		fmt.Printf("# first failure: %v\n", log.firstErr)
	}
	rep := report{
		Correct:   log.failed == 0 && log.attempted > 0,
		Attempted: log.attempted,
		Failed:    log.failed,
		Metrics:   m,
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

// settle flushes dirty pages (so writeback from set-up or an earlier
// run does not land in the timed region) and forces a GC.
func settle() {
	syscall.Sync()
	runtime.GC()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

type runtimeSample struct {
	allocB, cpuGC, cpuTotal float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocB: val(0), cpuGC: val(1), cpuTotal: val(2)}
}

// opSelf is the median self time of the benchmark's own operation
// spans: the work the harness does around its calls into the program.
func opSelf(sum map[string]*spanSummary) float64 {
	var self []float64
	for name, s := range sum {
		if strings.HasPrefix(name, "op.") {
			self = append(self, s.SelfMs...)
		}
	}
	return median(self)
}

func printSpanTable(sum map[string]*spanSummary) {
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %-34s %8s %12s %12s %12s\n", "span", "count", "p50_ms", "self_p50_ms", "self_tot_ms")
	for _, n := range names {
		s := sum[n]
		tot := 0.0
		for _, v := range s.SelfMs {
			tot += v
		}
		fmt.Printf("# %-34s %8d %12.4f %12.4f %12.1f\n", n, s.Count, median(s.DurMs), median(s.SelfMs), tot)
	}
}

type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports, in output
// order. A workload that does not load a layer reports it as 0.
var perLayer = []layerMetric{
	{"device.new_ms", "ms"}, {"flash.new_ms", "ms"}, {"sram.new_ms", "ms"},
	{"device.load_ms", "ms"}, {"device.image_mb", "MB"},
	{"ioatomic.image_writes", "count/op"}, {"ioatomic.image_mb_written", "MB/op"},
	{"ioatomic.write_ms", "ms"}, {"ioatomic.fsync_ms", "ms"},
	{"storage.read_mb", "MB/op"}, {"storage.read_ms", "ms"},
	{"wal.appends", "count/op"}, {"wal.bytes", "B/op"}, {"wal.fsyncs", "count/op"},
	{"wal.fsync_ms_p50", "ms"}, {"wal.fsync_ms_p99", "ms"},
	{"sched.submit_ms_p50", "ms"}, {"sched.drain_s", "s"}, {"sched.passes", "count/op"},
	{"sched.slots_per_pass", "count"}, {"sched.status_ms_p50", "ms"},
	{"sched.chamber_h_per_campaign", "sim_h"}, {"sched.sim_latency_h_p99", "sim_h"},
	{"http.submit_ms_p50", "ms"}, {"http.poll_ms_p50", "ms"}, {"http.status_ms_p50", "ms"},
	{"http.polls_per_campaign", "count/op"}, {"http.retries", "count/op"},
	{"core.begin_encode_ms", "ms"}, {"core.stress_slice_ms", "ms"}, {"core.finish_ms", "ms"},
	{"rig.capture_ms_per_capture", "ms"}, {"rig.captures_per_reveal", "count"},
	{"core.decode_tail_ms", "ms"}, {"core.rungs_per_reveal", "count"}, {"core.escalated_frac", "fraction"},
	{"campaign.decode_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB/op"}, {"runtime.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"}, {"bench.op_self_ms", "ms"}, {"bench.op_ms_tail", "ms"},
}
