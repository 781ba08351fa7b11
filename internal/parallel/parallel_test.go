package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 7, 64, 1000} {
			p := New(workers)
			var mu sync.Mutex
			seen := make([]int, n)
			if err := p.Run(context.Background(), n, 8, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunAlignment(t *testing.T) {
	p := New(3)
	if err := p.Run(context.Background(), 100, 8, func(lo, hi int) {
		if lo%8 != 0 {
			t.Errorf("chunk start %d not aligned to 8", lo)
		}
		if hi != 100 && hi%8 != 0 {
			t.Errorf("chunk end %d not aligned to 8", hi)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChunkedOddAndEvenSplits(t *testing.T) {
	for _, chunk := range []int{1, 2, 3, 7, 10, 999, 1000, 1001} {
		p := New(4)
		var total atomic.Int64
		if err := p.RunChunked(context.Background(), 1000, chunk, func(lo, hi int) {
			total.Add(int64(hi - lo))
		}); err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if total.Load() != 1000 {
			t.Fatalf("chunk=%d covered %d of 1000 items", chunk, total.Load())
		}
	}
}

func TestRunCancellation(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := p.RunChunked(ctx, 1000, 10, func(lo, hi int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 100 {
		t.Fatalf("cancellation did not stop dispatch: %d chunks ran", ran.Load())
	}
}

func TestRunEmptyAndCancelledUpfront(t *testing.T) {
	p := New(4)
	if err := p.Run(context.Background(), 0, 1, func(lo, hi int) {
		t.Error("fn called for empty range")
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	if err := p.Run(ctx, 10, 1, func(lo, hi int) { called = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_ = called // a chunk may or may not have been dispatched before the check; both are valid
}

func TestSharedPoolIsBounded(t *testing.T) {
	p := Shared()
	if p.Workers() < 1 {
		t.Fatalf("shared pool has %d workers", p.Workers())
	}
	if Shared() != p {
		t.Fatal("Shared() is not a singleton")
	}
	// Concurrent Runs from many goroutines must all complete (no token
	// leak, no deadlock) while sharing one budget.
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Run(context.Background(), 64, 8, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	wg.Wait()
	if total.Load() != 8*64 {
		t.Fatalf("concurrent shared runs covered %d items, want %d", total.Load(), 8*64)
	}
}

// TestRunSteadyStateAllocatesNothing: once the process's workers exist,
// a Run at any width hands out a recycled batch and allocates nothing —
// the capture kernel's zero-alloc contract rests on it.
func TestRunSteadyStateAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	var total atomic.Int64
	fn := func(lo, hi int) { total.Add(int64(hi - lo)) }
	for _, workers := range []int{2, 4} {
		p := New(workers)
		if err := p.Run(ctx, 1024, 8, fn); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if err := p.Run(ctx, 1024, 8, fn); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("workers=%d: Run allocates %.1f objects per steady-state call", workers, avg)
		}
	}
	if total.Load() != 2*102*1024 { // warm-up + AllocsPerRun's 1 + 100 runs, per width
		t.Fatalf("runs covered %d items, want %d", total.Load(), 2*102*1024)
	}
}

// TestPoolsShareParkedWorkers: a Pool is only a budget — building and
// running a thousand of them starts no goroutines beyond the process's
// GOMAXPROCS parked workers.
func TestPoolsShareParkedWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	fn := func(lo, hi int) {}
	for i := 0; i < 1000; i++ {
		if err := New(2+i%7).Run(context.Background(), 64, 1, fn); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew > runtime.GOMAXPROCS(0) {
		t.Fatalf("1000 pools grew the process by %d goroutines, GOMAXPROCS is %d", grew, runtime.GOMAXPROCS(0))
	}
}
