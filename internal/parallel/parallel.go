// Package parallel provides the bounded worker pool behind the SRAM
// capture engine. A Pool is a concurrency *budget*, not a set of
// goroutines: the process owns one set of parked worker goroutines (at
// most GOMAXPROCS, started on demand), and every Pool borrows from it.
// A Pool's semaphore bounds how many of those workers run its chunks at
// once, so a fleet pointing many devices at one Pool gets fleet-wide
// bounded parallelism for free — ten concurrent capture bursts share
// the same budget instead of oversubscribing the machine tenfold — and
// building pools costs no goroutines at all.
//
// A Run hands its workers one recycled batch descriptor; the workers
// claim chunks from it with an atomic cursor. Steady-state Runs
// therefore allocate nothing at any width: no goroutine, no closure,
// no channel per burst.
//
// Correctness never depends on the pool: the capture engine derives all
// randomness from counter-based streams (rng.Stream), so any worker
// count and any chunk size produce bit-identical results.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds data-parallel work. The zero value is not usable; use New
// or Shared.
type Pool struct {
	workers int
	sem     chan struct{}
}

// New builds a pool with the given concurrency budget; workers <= 0
// means runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide default pool (GOMAXPROCS workers).
// Every SRAM array uses it unless explicitly given its own pool, so
// concurrent fleet operations are machine-bounded by default.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = New(0) })
	return shared
}

// Workers returns the pool's concurrency budget.
func (p *Pool) Workers() int { return p.workers }

// chunkFor splits n items over the worker budget, rounding the chunk up
// to a multiple of align (so byte-packed bit arrays shard on byte
// boundaries and workers never write the same byte).
func (p *Pool) chunkFor(n, align int) int {
	if align < 1 {
		align = 1
	}
	chunk := (n + p.workers - 1) / p.workers
	if rem := chunk % align; rem != 0 {
		chunk += align - rem
	}
	if chunk < align {
		chunk = align
	}
	return chunk
}

// Run splits [0, n) into per-worker chunks aligned to align and calls
// fn(lo, hi) for each, concurrently, bounded by the pool budget. It
// returns ctx.Err() if the context is cancelled; chunks already
// claimed run to completion (fn must not block indefinitely), chunks
// not yet claimed are skipped. fn must be safe to call concurrently
// on disjoint ranges, and must not itself call Run: it executes on the
// process's parked workers.
func (p *Pool) Run(ctx context.Context, n, align int, fn func(lo, hi int)) error {
	return p.RunChunked(ctx, n, p.chunkFor(n, align), fn)
}

// RunChunked is Run with an explicit chunk size — exposed so the
// equivalence tests can drive odd and even splits; Run chooses the
// chunk from the worker budget.
func (p *Pool) RunChunked(ctx context.Context, n, chunk int, fn func(lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if chunk <= 0 {
		chunk = n
	}
	if chunk >= n || p.workers == 1 {
		// Serial fast path: no handoff, no semaphore round-trips.
		for lo := 0; lo < n; lo += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(lo, min(lo+chunk, n))
		}
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b := getBatch()
	b.ctx, b.fn, b.pool, b.n, b.chunk = ctx, fn, p, n, chunk
	b.next.Store(0)
	helpers := min(p.workers, (n+chunk-1)/chunk, runtime.GOMAXPROCS(0))
	// The first worker waits for budget; the rest join only while
	// budget is free, so a busy pool still finishes on one worker.
	p.sem <- struct{}{}
	for h := 1; ; h++ {
		b.wg.Add(1)
		dispatch(b)
		if h == helpers || !p.tryAcquire() {
			break
		}
	}
	b.wg.Wait()
	b.ctx, b.fn, b.pool = nil, nil, nil
	putBatch(b)
	return ctx.Err()
}

func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// batch is one Run's shared state. Workers claim chunk starts from
// next; wg counts the workers still inside the batch. Batches are
// recycled, so a steady stream of Runs allocates none.
type batch struct {
	ctx      context.Context
	fn       func(lo, hi int)
	pool     *Pool
	n, chunk int
	next     atomic.Int64
	wg       sync.WaitGroup
}

// work claims and runs chunks until none remain or the context is
// cancelled, then returns the pool token it was dispatched with. It
// must not touch b after wg.Done: the Run may recycle it at once.
func (b *batch) work() {
	for b.ctx.Err() == nil {
		lo := int(b.next.Add(int64(b.chunk))) - b.chunk
		if lo >= b.n {
			break
		}
		b.fn(lo, min(lo+b.chunk, b.n))
	}
	<-b.pool.sem
	b.wg.Done()
}

var (
	// tasks hands batches to parked workers; unbuffered, so a send
	// succeeds only when a worker is idle.
	tasks = make(chan *batch)
	// spare recycles batch descriptors across Runs. One is in flight
	// per concurrent Run; 64 covers any realistic fleet of concurrent
	// bursts, and a Run beyond that just allocates (and drops) its own.
	spare = make(chan *batch, 64)

	spawnMu sync.Mutex
	spawned int
)

// dispatch gives b to an idle parked worker, starts a new one while the
// process has fewer than GOMAXPROCS, and otherwise waits for one to
// free up. Workers never block outside fn, so the wait always ends.
func dispatch(b *batch) {
	select {
	case tasks <- b:
		return
	default:
	}
	spawnMu.Lock()
	grow := spawned < runtime.GOMAXPROCS(0)
	if grow {
		spawned++
	}
	spawnMu.Unlock()
	if grow {
		go worker(b)
		return
	}
	tasks <- b
}

// worker runs its first batch, then parks for the next one forever.
func worker(b *batch) {
	for {
		b.work()
		b = <-tasks
	}
}

func getBatch() *batch {
	select {
	case b := <-spare:
		return b
	default:
		return new(batch)
	}
}

func putBatch(b *batch) {
	select {
	case spare <- b:
	default:
	}
}
