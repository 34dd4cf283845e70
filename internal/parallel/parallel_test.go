package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	cases := []struct{ n, jobs, want int }{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{8, 3, 3},
		{2, 100, 2},
		{5, 0, 5}, // jobs < 1: no clamp against jobs
		{0, 0, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.jobs); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.jobs, got, c.want)
		}
	}
}

// TestForEachOrderedSlots: every index runs exactly once and slot
// writes are visible after return, for serial and parallel pools.
func TestForEachOrderedSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const jobs = 100
		slots := make([]int, jobs)
		err := ForEach(context.Background(), jobs, workers, func(i int) error {
			slots[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range slots {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error {
		t.Fatal("fn called with zero jobs")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachFirstErrorStops: after an error no new indices start; the
// error is returned.
func TestForEachFirstErrorStops(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		err := ForEach(context.Background(), 1000, workers, func(i int) error {
			started.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
		// The pool must stop long before draining all 1000 jobs.
		if n := started.Load(); n >= 1000 {
			t.Fatalf("workers=%d: pool did not stop early (%d jobs ran)", workers, n)
		}
	}
}

// TestForEachCancellation: cancelling mid-run surfaces ctx's error and
// stops scheduling.
func TestForEachCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(ctx, 1000, workers, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop the pool (%d ran)", workers, n)
		}
	}
}

func TestForEachCancelledUpfront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := ForEach(ctx, 10, 4, func(int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("fn ran under a pre-cancelled context")
	}
}

// TestForEachErrorBeatsCancellation: a job error recorded before the
// context is cancelled wins.
func TestForEachErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEach(ctx, 10, 1, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 50, workers, func(int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, workers)
	}
}
