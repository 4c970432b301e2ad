package network

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ofar/internal/traffic"
)

// genFor builds the per-case traffic generator; a fresh one per network so
// serial and parallel runs never share generator state.
func genFor(n *Network, kind string, load float64) traffic.Generator {
	switch kind {
	case "uniform":
		return traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, n.Cfg.PacketSize)
	case "adversarial":
		return traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Cfg.H), load, n.Cfg.PacketSize)
	case "burst":
		return traffic.NewBurst(traffic.NewAdv(n.Topo, 2), 40, n.Topo.Nodes)
	default:
		panic("unknown traffic kind " + kind)
	}
}

// stepCompare advances the reference network and every variant cycle by
// cycle and requires all grant digests to agree after every cycle — i.e.
// the engines commit identical grant sequences and identical deliveries at
// all times, not just in aggregate.
func stepCompare(t *testing.T, ref *Network, variants map[string]*Network, cycles int) {
	t.Helper()
	for c := 0; c < cycles; c++ {
		ref.Step()
		rd, rc := ref.GrantDigest()
		for name, v := range variants {
			v.Step()
			vd, vc := v.GrantDigest()
			if vd != rd || vc != rc {
				t.Fatalf("cycle %d: digests diverge: reference %016x (%d events), %s %016x (%d events)",
					c, rd, rc, name, vd, vc)
			}
		}
	}
}

// TestParallelEngineMatchesSerial is the equivalence contract of the
// worker pool and the activity scheduler: for every traffic pattern and
// mechanism tried (the burst source generates inline even on the pool), a
// Workers=4 run — with the active-set scheduler on or off — must be
// bit-identical to the inline scheduler-disabled run: same per-cycle grant sequences, same per-packet
// latencies (both folded into the digest), same statistics, and a conserved
// packet population on every side.
func TestParallelEngineMatchesSerial(t *testing.T) {
	cycles := 2500
	if testing.Short() {
		cycles = 600
	}
	cases := []struct {
		routing Routing
		traffic string
		load    float64
	}{
		{OFAR, "uniform", 0.8},     // saturating: misroutes, ring entries, RNG draws
		{OFAR, "adversarial", 0.5}, // ADV+h: global misroutes and escape pressure
		{OFAR, "burst", 0},         // closed-loop drain: active set shrinks to zero
		{PB, "adversarial", 0.4},   // flag boards published before the compute phase
		{VAL, "uniform", 0.6},      // injection-time RNG draws
	}
	for _, tc := range cases {
		name := string(tc.routing) + "/" + tc.traffic
		t.Run(name, func(t *testing.T) {
			base := DefaultConfig(3)
			base.Routing = tc.routing
			if tc.routing != OFAR && tc.routing != OFARL {
				base.Ring = RingNone
			}
			mk := func(workers int, noSched bool) *Network {
				cfg := base
				cfg.Workers = workers
				cfg.DisableActivitySched = noSched
				n := mustNet(t, cfg)
				n.SetGenerator(genFor(n, tc.traffic, tc.load))
				n.EnableGrantDigest()
				n.Stats.StartMeasurement(0)
				return n
			}
			ref := mk(0, true) // inline, every router every cycle
			variants := map[string]*Network{
				"serial+sched":     mk(0, false),
				"workers4+nosched": mk(4, true),
				"workers4+sched":   mk(4, false),
			}

			stepCompare(t, ref, variants, cycles)

			ss := ref.Stats
			if ss.Delivered == 0 {
				t.Fatal("nothing delivered — the case exercised no traffic")
			}
			if err := ref.CheckConservation(); err != nil {
				t.Fatalf("reference: %v", err)
			}
			for name, v := range variants {
				ps := v.Stats
				if ss.Generated != ps.Generated || ss.Injected != ps.Injected || ss.Delivered != ps.Delivered {
					t.Fatalf("%s populations diverge: reference gen/inj/del %d/%d/%d, got %d/%d/%d",
						name, ss.Generated, ss.Injected, ss.Delivered, ps.Generated, ps.Injected, ps.Delivered)
				}
				if math.Float64bits(ss.AvgLatency()) != math.Float64bits(ps.AvgLatency()) ||
					ss.MaxLatency() != ps.MaxLatency() {
					t.Fatalf("%s latencies diverge: reference avg %v max %d, got avg %v max %d",
						name, ss.AvgLatency(), ss.MaxLatency(), ps.AvgLatency(), ps.MaxLatency())
				}
				if ss.GlobalMisroutes != ps.GlobalMisroutes || ss.LocalMisroutes != ps.LocalMisroutes ||
					ss.RingEnters != ps.RingEnters || ss.RingExits != ps.RingExits {
					t.Fatalf("%s routing decisions diverge: reference %d/%d/%d/%d, got %d/%d/%d/%d",
						name, ss.GlobalMisroutes, ss.LocalMisroutes, ss.RingEnters, ss.RingExits,
						ps.GlobalMisroutes, ps.LocalMisroutes, ps.RingEnters, ps.RingExits)
				}
				if err := v.CheckConservation(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

// TestWorkerCountInvariance: the digest must not depend on *how many*
// workers split the groups, nor on whether the activity scheduler prunes
// the iteration to the awake set, nor on whether routers memoize routing
// decisions (the full workers × scheduler × route-cache matrix). Pooled
// rows force ParallelCutover=1 so the pool genuinely dispatches every
// non-empty phase even on a single-P host.
func TestWorkerCountInvariance(t *testing.T) {
	cycles := 800
	if testing.Short() {
		cycles = 300
	}
	run := func(workers int, noSched, noCache bool) (uint64, int64) {
		cfg := DefaultConfig(2)
		cfg.Workers = workers
		cfg.DisableActivitySched = noSched
		cfg.DisableRouteCache = noCache
		if workers > 1 {
			cfg.ParallelCutover = 1
		}
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
		n.EnableGrantDigest()
		n.Run(cycles)
		d, c := n.GrantDigest()
		return d, c
	}
	wantD, wantC := run(0, true, false)
	for _, noCache := range []bool{false, true} {
		for _, noSched := range []bool{false, true} {
			for _, w := range []int{0, 1, 4, 8, 64} { // 64 > group count: clamped
				d, c := run(w, noSched, noCache)
				if d != wantD || c != wantC {
					t.Fatalf("workers=%d noSched=%v noCache=%v: digest %016x (%d) != reference %016x (%d)",
						w, noSched, noCache, d, c, wantD, wantC)
				}
			}
		}
	}
}

// TestRouterRNGStreamIndependence pins the invariant the parallel engine
// relies on: every router owns a private RNG stream fixed at construction,
// so the draws one router sees cannot depend on how many draws any other
// router has consumed (i.e. there is no hidden shared stream that a
// different router-visit order could perturb).
func TestRouterRNGStreamIndependence(t *testing.T) {
	const probe = 5 // router whose stream we observe
	cfg := DefaultConfig(2)
	a := mustNet(t, cfg)
	b := mustNet(t, cfg)

	// Network b: exhaust thousands of draws from every *other* router first.
	for r := range b.Routers {
		if r == probe {
			continue
		}
		for i := 0; i < 1000; i++ {
			b.Routers[r].RandInt(1 << 30)
		}
	}
	// The probe router's stream must be untouched: identical to a fresh
	// network's probe stream, draw for draw.
	for i := 0; i < 64; i++ {
		want := a.Routers[probe].RandInt(1 << 30)
		got := b.Routers[probe].RandInt(1 << 30)
		if want != got {
			t.Fatalf("draw %d: probe router stream diverged (%d vs %d) after other routers consumed draws", i, want, got)
		}
	}
}

// BenchmarkNetworkStep measures whole-network cycle throughput on the
// saturated h=3 system inline ("serial") and for several pool sizes — the
// headline number of the worker pool. On a ≥4-core machine the workers=4
// case beats the inline cycle rate (router compute is ~90% of a saturated
// cycle and the persistent pool's dispatch is microseconds); on a single-P
// host the auto cutover pins every phase inline, so the pool rows measure
// the cutover's overhead (one comparison) rather than a barrier penalty — which is why the speedup check is a benchmark
// comparison rather than a wall-clock test assertion.
func BenchmarkNetworkStep(b *testing.B) {
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	for _, workers := range []int{0, 2, 4} {
		name := "serial"
		if workers > 0 {
			name = fmt.Sprintf("workers%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(3)
			cfg.Workers = workers
			n, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 1.0, cfg.PacketSize))
			n.Run(2000) // drive to saturation before measuring
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}
