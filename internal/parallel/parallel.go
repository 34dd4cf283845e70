// Package parallel is the engine's shared concurrency substrate: a
// bounded, context-aware worker pool with ordered result slots. Every
// fan-out in the system — the experiment suite, the pipelined video
// scheduler across frames and the zoned walk across zones — runs
// through ForEach instead of re-growing its own goroutine pool. Pixel
// kernels stay serial: parallelism lives at one level, across frames,
// zones or images, never inside one frame's histogram or remap.
//
// The determinism contract all callers rely on: work is identified by
// index, results are written into caller-owned per-index slots, and any
// reduction over those slots happens serially after the pool drains.
// Scheduling order is therefore free to vary between runs while outputs
// stay bit-identical to a serial execution.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count against a job count:
// n <= 0 selects GOMAXPROCS (the historical default of the batch and
// experiment fan-outs), and the result is clamped to [1, jobs] so a
// small fan-out never spawns idle goroutines.
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if jobs >= 1 && n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, jobs) on a pool of at most
// `workers` goroutines (workers <= 0 selects GOMAXPROCS). Indices are
// claimed from a shared counter, so callers may write into
// pre-allocated result slots without synchronization; wait-group
// completion orders every slot write before ForEach returns.
//
// The first error (in time) stops the pool: no new indices start,
// in-flight calls finish, and that error is returned. Cancelling ctx
// stops the pool the same way and returns ctx's error if no job failed
// first. With one worker the jobs run inline on the calling goroutine
// in index order, with the same ctx check before each job.
func ForEach(ctx context.Context, jobs, workers int, fn func(i int) error) error {
	if jobs <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, jobs)
	mJobs.Add(int64(jobs))
	if workers == 1 {
		mInlineRuns.Inc()
		for i := 0; i < jobs; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	mFanouts.Inc()
	mWorkers.Add(int64(workers))
	f := fanoutPool.Get().(*fanout)
	f.next.Store(0)
	f.stopped.Store(false)
	f.firstErr = nil
	f.ctx, f.jobs, f.fn = ctx, jobs, fn
	for w := 0; w < workers; w++ {
		f.wg.Add(1)
		go f.run()
	}
	f.wg.Wait()
	err := f.firstErr
	f.ctx, f.fn = nil, nil
	fanoutPool.Put(f)
	if err != nil {
		return err
	}
	return ctx.Err()
}

// fanout is the shared state of one ForEach pool. It lives in a
// sync.Pool because the zoned walk fans out twice per frame: the
// counter, stop flag, wait group and error slot would otherwise each
// escape to the heap on every call. After wg.Wait returns no goroutine
// touches the struct again, so resetting and re-pooling it is safe.
type fanout struct {
	next     atomic.Int64
	stopped  atomic.Bool
	wg       sync.WaitGroup
	mu       sync.Mutex
	firstErr error
	ctx      context.Context
	jobs     int
	fn       func(i int) error
}

var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// run is one pool worker: claim indices until the jobs run out, a job
// fails, or the context is cancelled.
func (f *fanout) run() {
	defer f.wg.Done()
	for !f.stopped.Load() {
		if f.ctx.Err() != nil {
			return
		}
		i := int(f.next.Add(1)) - 1
		if i >= f.jobs {
			return
		}
		if err := f.fn(i); err != nil {
			f.fail(err)
			return
		}
	}
}

// fail records the first error in time and stops the pool.
func (f *fanout) fail(err error) {
	f.mu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.mu.Unlock()
	f.stopped.Store(true)
}
