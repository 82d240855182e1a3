package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelRunsEveryIndexOnce checks the core contract across inline,
// partial and saturated parallelism: fn(i) runs exactly once per index and
// all effects are visible when Parallel returns.
func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ parallelism, n int }{
		{1, 1}, {1, 100}, {4, 1}, {4, 3}, {4, 100}, {8, 257}, {64, 1000},
	} {
		counts := make([]int32, tc.n)
		Parallel(tc.parallelism, tc.n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism=%d n=%d: index %d ran %d times", tc.parallelism, tc.n, i, c)
			}
		}
	}
}

// TestParallelZeroAndNegative checks degenerate sizes run nothing and return.
func TestParallelZeroAndNegative(t *testing.T) {
	ran := false
	Parallel(4, 0, func(i int) { ran = true })
	Parallel(4, -3, func(i int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

// TestParallelInlineWhenSerial checks parallelism <= 1 stays on the calling
// goroutine (no pool involvement), which the engine relies on for
// MAX_QUERY_THREADS=1 queries.
func TestParallelInlineWhenSerial(t *testing.T) {
	var order []int
	Parallel(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path reordered: %v", order)
		}
	}
}

// TestParallelNested submits a job from inside another job's morsel — the
// pattern of a pipeline segment running a parallel kernel. The caller-drains
// design must not deadlock even with every worker busy.
func TestParallelNested(t *testing.T) {
	var total atomic.Int64
	Parallel(4, 8, func(i int) {
		Parallel(4, 16, func(j int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested total = %d, want %d", got, 8*16)
	}
}

// TestParallelConcurrentJobs hammers the shared pool from many goroutines at
// once so jobs contend for workers; every job must still complete exactly.
func TestParallelConcurrentJobs(t *testing.T) {
	const jobs, n = 32, 64
	var wg sync.WaitGroup
	totals := make([]int64, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var sum atomic.Int64
			Parallel(4, n, func(i int) { sum.Add(int64(i)) })
			totals[j] = sum.Load()
		}(j)
	}
	wg.Wait()
	want := int64(n * (n - 1) / 2)
	for j, got := range totals {
		if got != want {
			t.Fatalf("job %d: sum = %d, want %d", j, got, want)
		}
	}
}

// TestParallelismFloor checks the participant budget never drops below 4, so
// race-enabled tests exercise real cross-goroutine merges on small hosts.
func TestParallelismFloor(t *testing.T) {
	if p := Parallelism(); p < 4 {
		t.Fatalf("Parallelism() = %d, want >= 4", p)
	}
}

// TestParallelMorselPanicOnWorker panics inside morsels that can only run on
// pool workers (the caller is held in its own morsel until one has
// panicked). The panic must surface on the caller after every morsel ran,
// and the pool must then run a fresh job correctly.
func TestParallelMorselPanicOnWorker(t *testing.T) {
	const n = 4
	var ran atomic.Int32
	panicked := make(chan struct{})
	var once sync.Once
	got := func() (r any) {
		defer func() { r = recover() }()
		Parallel(n, n, func(i int) {
			defer ran.Add(1)
			if i == 0 {
				<-panicked // the caller's own morsel: wait for a worker's panic
				return
			}
			defer once.Do(func() { close(panicked) })
			panic("morsel boom")
		})
		return nil
	}()
	if got != "morsel boom" {
		t.Fatalf("caller recovered %v, want the morsel's panic value", got)
	}
	if r := ran.Load(); r != n {
		t.Fatalf("%d of %d morsels ran before the panic surfaced", r, n)
	}
	counts := make([]int32, 100)
	Parallel(n, len(counts), func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("after the panic: index %d ran %d times", i, c)
		}
	}
}
