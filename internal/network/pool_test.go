package network

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ofar/internal/traffic"
)

// TestStepZeroAllocSteadyState pins the perf contract of the cycle loop: a
// warmed-up Step performs no allocations — serial or pooled, scheduler on or
// off. The parallel cases force ParallelCutover=1 so every non-empty cycle
// dispatches to the pool (AllocsPerRun runs under GOMAXPROCS=1, where the
// auto cutover would otherwise route low-load steps around it). Amortized
// growth of long-lived slices (source queues, the timing wheel) is allowed
// for by a fractional tolerance, matching the "0 allocs/op" the committed
// bench baseline reports.
func TestStepZeroAllocSteadyState(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		noSched bool
	}{
		{"serial/sched", 0, false},
		{"serial/nosched", 0, true},
		{"workers4/sched", 4, false},
		{"workers4/nosched", 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Workers = tc.workers
			cfg.DisableActivitySched = tc.noSched
			if tc.workers > 1 {
				cfg.ParallelCutover = 1
			}
			n := mustNet(t, cfg)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.4, cfg.PacketSize))
			n.Run(3000) // steady state: pools, queues and the wheel at capacity
			allocs := testing.AllocsPerRun(300, n.Step)
			if allocs > 0.02 {
				t.Fatalf("steady-state Step allocates: %.3f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestPoolWidth pins the one pool-width rule that the network, the sweep
// driver and the sweep service share: Workers, at least 1 and at most the
// group count.
func TestPoolWidth(t *testing.T) {
	h2 := DefaultConfig(2)              // a=4, h=2: 9 groups at maximum size
	h2.Routing, h2.Ring = MIN, RingNone // a single group cannot stitch a ring
	cases := []struct {
		name    string
		workers int
		groups  int
		want    int
	}{
		{"unset", 0, 0, 1},
		{"one", 1, 0, 1},
		{"below groups", 4, 0, 4},
		{"equal groups", 9, 0, 9},
		{"above groups", 64, 0, 9},
		{"explicit groups", 8, 3, 3},
		{"single group", 4, 1, 1},
	}
	for _, tc := range cases {
		cfg := h2
		cfg.Workers = tc.workers
		cfg.Groups = tc.groups
		if got := cfg.PoolWidth(); got != tc.want {
			t.Errorf("%s: PoolWidth() = %d, want %d", tc.name, got, tc.want)
		}
		n := mustNet(t, cfg)
		if n.workers != tc.want || (n.workerPool != nil) != (tc.want > 1) {
			t.Errorf("%s: network runs %d workers (pool %v), want %d", tc.name, n.workers, n.workerPool != nil, tc.want)
		}
		n.Close()
	}
}

// TestPoolCloseIdempotent: Close must be callable any number of times, on
// parallel and serial networks alike, including before any Step.
func TestPoolCloseIdempotent(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Workers = 4
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
	n.Run(50)
	n.Close()
	n.Close()
	n.Close()

	serial := mustNet(t, testConfig(OFAR))
	serial.Close() // no pool: must be a no-op
	serial.Close()

	fresh := mustNet(t, cfg)
	fresh.Close() // never stepped: workers parked since construction
}

// TestPoolGoroutineLeak: constructing a parallel network starts Workers−1
// goroutines; Close must retire all of them (it waits for their exit). The
// final NumGoroutine comparison polls briefly because a goroutine may be
// counted for an instant after its WaitGroup.Done.
func TestPoolGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(2)
	cfg.Workers = 8
	cfg.ParallelCutover = 1
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
	n.Run(100) // exercise the pool, not just park/unpark
	if got := runtime.NumGoroutine(); got < before+7 {
		t.Fatalf("expected ≥ %d goroutines while the pool is live, have %d", before+7, got)
	}
	n.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := runtime.NumGoroutine(); got <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelCutoverInvariance: the cutover decides only *where* a cycle's
// compute runs, never what it computes — digests must match between a run
// that always dispatches to the pool (cutover 1), one that never does
// (cutover above the router count), and the auto-calibrated default.
func TestParallelCutoverInvariance(t *testing.T) {
	run := func(cutover int) (uint64, int64) {
		cfg := DefaultConfig(2)
		cfg.Workers = 4
		cfg.ParallelCutover = cutover
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
		n.EnableGrantDigest()
		n.Run(600)
		d, c := n.GrantDigest()
		return d, c
	}
	wantD, wantC := run(0)
	for _, cut := range []int{1, 10000} {
		if d, c := run(cut); d != wantD || c != wantC {
			t.Fatalf("cutover=%d: digest %016x (%d) != auto %016x (%d)", cut, d, c, wantD, wantC)
		}
	}
}

// TestCutoverRoutesShortLists instruments the dispatch decision itself: with
// a cutover above the router count every Step must stay serial (the pool's
// epoch never advances), and with cutover 1 a loaded network must dispatch.
func TestCutoverRoutesShortLists(t *testing.T) {
	epoch := func(cutover int) uint64 {
		cfg := DefaultConfig(2)
		cfg.Workers = 4
		cfg.ParallelCutover = cutover
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
		n.Run(200)
		n.workerPool.mu.Lock()
		defer n.workerPool.mu.Unlock()
		return n.workerPool.epoch
	}
	if got := epoch(10000); got != 0 {
		t.Fatalf("cutover above router count still dispatched %d epochs to the pool", got)
	}
	if got := epoch(1); got == 0 {
		t.Fatal("cutover=1 never dispatched a loaded network's cycle to the pool")
	}
}

// BenchmarkPoolDispatch isolates the barrier itself: a quiescent parallel
// network with ParallelCutover=1 and a single awake router pays one full
// dispatch+join round trip per Step with almost no compute to amortize it —
// the number the cutover calibration is built on (compare against the
// serial row).
func BenchmarkPoolDispatch(b *testing.B) {
	for _, workers := range []int{0, 4, 8} {
		name := "serial"
		if workers > 0 {
			name = fmt.Sprintf("workers%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(3)
			cfg.Workers = workers
			cfg.ParallelCutover = 1
			n, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.02, cfg.PacketSize))
			n.Run(2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}
