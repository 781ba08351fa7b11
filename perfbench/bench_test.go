package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // 10 samples beyond rank 990
		{999, 0.99, false}, // 9 beyond
		{100, 0.9, true},
		{99, 0.9, false},
		{40, 0.75, true},
		{39, 0.75, false},
	} {
		if got := ruleHolds(c.n, c.p); got != c.want {
			t.Errorf("ruleHolds(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 62, End: 64},
		{ID: 6, Parent: 1, Start: 95, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10 - 5, 2: 20, 3: 30, 4: 8, 5: 2, 6: 25} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

func TestClassify(t *testing.T) {
	for path, want := range map[string]fileClass{
		"/s/journal.jsonl":                        classJournal,
		"/s/campaigns/c1/slot-0-final.img":        classImage,
		"/s/campaigns/c1/slot-1-ckpt-5.0000h.img": classImage,
		"/s/campaigns/c1/slot-0-final.img.tmp123": classImage,
		"/s/campaigns/c1/spec.json":               classOther,
		"/s/campaigns/c1/spec.json.tmp9":          classOther,
		"/s/campaigns/c1/result.json":             classOther,
	} {
		if got := classify(path); got != want {
			t.Errorf("classify(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestSeedsGiveDifferentInputs(t *testing.T) {
	a, b, a2 := newInputs(1, "drain"), newInputs(2, "drain"), newInputs(1, "drain")
	if a.serial(0) == b.serial(0) {
		t.Errorf("seeds 1 and 2 share serial %s", a.serial(0))
	}
	if a.serial(0) != a2.serial(0) {
		t.Errorf("seed 1 gave serials %s and %s", a.serial(0), a2.serial(0))
	}
	ma, mb, ma2 := a.message(32), b.message(32), a2.message(32)
	if bytes.Equal(ma, mb) {
		t.Error("seeds 1 and 2 gave the same message")
	}
	if !bytes.Equal(ma, ma2) {
		t.Error("seed 1 gave two different messages")
	}
	if newInputs(1, "serve").serial(0) == a.serial(0) {
		t.Error("workloads share serials under one seed")
	}
}

// TestHeldOutSeedVerifies runs a small drain batch and one serve
// operation per client on a seed not used while sizing the benchmark.
func TestHeldOutSeedVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	const seed = 918273
	ctx := context.Background()
	d := newDrain(seed)
	d.dir = t.TempDir()
	var log opLog
	if _, err := d.runBatch(ctx, nil, drainWarmBatch, &log); err != nil {
		t.Fatal(err)
	}
	if log.failed != 0 || len(log.latMs) != drainWarmBatch {
		t.Fatalf("drain: %d of %d verified: %v", len(log.latMs), log.attempted, log.firstErr)
	}

	s := newServe(seed)
	if err := s.setup(ctx, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	s.teardown()
}

func TestWindowed(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s, cpuMs float64, ops int) mark {
		return mark{t0.Add(time.Duration(s * float64(time.Second))), time.Duration(cpuMs * float64(time.Millisecond)), ops}
	}
	// Two parts; the 10 s between them (and the 1000 ms of CPU) are not
	// measured. 200 operations make room for all windows.
	rates, cpu := windowed([][]mark{
		{at(0, 0, 0), at(1, 1000, 100), at(2, 2000, 300)},
		{at(12, 12000, 300), at(13, 14000, 400), at(14, 15000, 400)},
	})
	wantRates, wantCPU := []float64{100, 200, 100}, []float64{10, 5, 20}
	if few, _ := windowed([][]mark{{at(0, 0, 0), at(1, 10, 10), at(2, 20, 20), at(3, 30, 30)}}); len(few) != 1 {
		t.Errorf("30 operations gave %d windows, want 1", len(few))
	}
	if len(rates) != 3 || len(cpu) != 3 {
		t.Fatalf("windowed gave %v, %v; want 3 windows (the empty one dropped)", rates, cpu)
	}
	for i := range wantRates {
		if math.Abs(rates[i]-wantRates[i]) > 1e-9 || math.Abs(cpu[i]-wantCPU[i]) > 1e-9 {
			t.Errorf("window %d: rate %v cpu %v, want %v and %v", i, rates[i], cpu[i], wantRates[i], wantCPU[i])
		}
	}
}
