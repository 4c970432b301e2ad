package network

import (
	"fmt"
	"testing"

	"ofar/internal/traffic"
)

// idleConfig returns a serial test configuration for one routing mechanism,
// covering the VC requirements of every engine (PAR needs the extra
// source-group hop VC).
func idleConfig(rt Routing) Config {
	cfg := testConfig(rt)
	if rt == PAR {
		cfg.Ring = RingNone
		cfg.LocalVCs, cfg.InjVCs = 4, 4
	}
	return cfg
}

// requireIdlePurity calls Cycle directly on every router of a quiescent
// network and requires the call to be side-effect-free: no grants, no RNG
// draws, no arbiter LRS movement, no buffer/credit/occupancy change (all
// folded into Router.StateFingerprint), and untouched run statistics. This
// is the load-bearing contract of the activity scheduler: a skipped router
// must behave exactly as if it had been cycled.
func requireIdlePurity(t *testing.T, n *Network) {
	t.Helper()
	gen, inj, del := n.Stats.Generated, n.Stats.Injected, n.Stats.Delivered
	for _, r := range n.Routers {
		if r.HasRoutableWork() {
			t.Fatalf("router %d reports routable work on a quiescent network (%d ready VCs)",
				r.ID, r.RoutableVCs())
		}
		before := r.StateFingerprint()
		for i := 0; i < 3; i++ {
			if grants := r.Cycle(n.Engine, n.Now()+int64(i)); len(grants) != 0 {
				t.Fatalf("router %d: idle Cycle produced %d grants", r.ID, len(grants))
			}
		}
		if after := r.StateFingerprint(); after != before {
			t.Fatalf("router %d: idle Cycle mutated state (fingerprint %016x -> %016x): "+
				"RNG draw, arbiter movement or occupancy change on an idle router",
				r.ID, before, after)
		}
	}
	if n.Stats.Generated != gen || n.Stats.Injected != inj || n.Stats.Delivered != del {
		t.Fatal("idle cycles changed run statistics")
	}
}

// TestIdleCycleIsPure proves, for every engine, that Cycle on a router with
// no routable buffer head is a no-op — first on a freshly built network,
// then again after real traffic has exercised the arbiters, RNG streams and
// credit loops and fully drained.
func TestIdleCycleIsPure(t *testing.T) {
	for _, rt := range []Routing{MIN, VAL, PB, UGAL, PAR, OFAR, OFARL} {
		t.Run(string(rt), func(t *testing.T) {
			cfg := idleConfig(rt)
			n := mustNet(t, cfg)
			requireIdlePurity(t, n)

			n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 3, n.Topo.Nodes))
			if !n.RunUntilDrained(200000) {
				t.Fatalf("burst not drained: %d/%d", n.Stats.Delivered, n.Stats.Generated)
			}
			// Let straggler credit events land so the network is quiescent.
			n.Run(cfg.GlobalLatency + cfg.PacketSize + 2)
			requireIdlePurity(t, n)
		})
	}
}

// awakeRouters compacts every group's active list and counts the routers
// left on it.
func awakeRouters(n *Network) int {
	total := 0
	for g := range n.activeG {
		total += len(n.compactGroup(g))
	}
	return total
}

// TestActiveSetTracksLoad watches the scheduler's active set directly: a
// quiescent network schedules no routers, traffic wakes them, and draining
// puts every router back to sleep.
func TestActiveSetTracksLoad(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	if got := awakeRouters(n); got != 0 {
		t.Fatalf("fresh network has %d active routers, want 0", got)
	}
	n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 2, n.Topo.Nodes))
	n.Run(5)
	if got := awakeRouters(n); got == 0 {
		t.Fatal("no routers awake with a burst in flight")
	}
	if !n.RunUntilDrained(200000) {
		t.Fatalf("burst not drained: %d/%d", n.Stats.Delivered, n.Stats.Generated)
	}
	n.Run(cfg.GlobalLatency + cfg.PacketSize + 2)
	if got := awakeRouters(n); got != 0 {
		t.Fatalf("%d routers still awake after draining, want 0", got)
	}
	for _, r := range n.Routers {
		if r.RoutableVCs() != 0 {
			t.Fatalf("router %d: %d ready VCs after drain", r.ID, r.RoutableVCs())
		}
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestReadyVCCounterMatchesBuffers cross-checks the incrementally tracked
// routable-head counter against a from-scratch scan of the buffers, in the
// middle of a loaded run — the counter is the scheduler's wake predicate,
// so a drift would mean skipped work.
func TestReadyVCCounterMatchesBuffers(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
	for c := 0; c < 600; c++ {
		n.Step()
		if c%50 != 0 {
			continue
		}
		for _, r := range n.Routers {
			want := 0
			for i := range r.In {
				var wantMask uint64
				for vc := range r.In[i].VCs {
					buf := &r.In[i].VCs[vc]
					if buf.Len() > 0 && !buf.Draining() {
						want++
						wantMask |= 1 << uint(vc)
					}
				}
				// The per-port ready bitset the allocator iterates must agree
				// bit for bit with the same predicate the counter tracks.
				if got := r.In[i].ReadyMask(); got != wantMask {
					t.Fatalf("cycle %d router %d port %d: ready mask %b, buffers say %b", c, r.ID, i, got, wantMask)
				}
			}
			if got := r.RoutableVCs(); got != want {
				t.Fatalf("cycle %d router %d: tracked %d ready VCs, buffers hold %d", c, r.ID, got, want)
			}
		}
	}
}

// BenchmarkStepByLoad is the per-cycle cost tracker for the activity
// scheduler and the worker pool: h=3 cycle cost across the load range of
// the paper's latency/throughput sweeps (most sweep points sit below
// saturation, where the scheduler skips the bulk of the routers), with the
// scheduler on and off, inline and with 4 and 8 pool workers. The pool
// rows exercise the cutover exactly as production runs do: low-load steps
// run inline, saturated steps dispatch to the pool.
// `make bench-json` records the numbers in BENCH_step.json.
func BenchmarkStepByLoad(b *testing.B) {
	for _, load := range []float64{0.05, 0.2, 0.5, 0.9, 0.99} {
		for _, workers := range []int{0, 4, 8} {
			for _, sched := range []bool{true, false} {
				wname := "serial"
				if workers > 0 {
					wname = fmt.Sprintf("workers%d", workers)
				}
				sname := "sched"
				if !sched {
					sname = "nosched"
				}
				b.Run(fmt.Sprintf("load=%.2f/%s/%s", load, wname, sname), func(b *testing.B) {
					cfg := DefaultConfig(3)
					cfg.Workers = workers
					cfg.DisableActivitySched = !sched
					n, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					defer n.Close()
					n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
					n.Run(2000) // reach steady state before measuring
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						n.Step()
					}
				})
			}
		}
	}

	// Full-scale h=6 rows (876 routers, 5256 nodes): the routine figure
	// regime since the group-sharded Step (see EXPERIMENTS.md). Inline
	// ("serial") vs a 4-worker pool ("shard4"), across the low/mid/saturated
	// loads the paper's sweeps hit; the pool rows go through the production
	// cutover, so on a single-P host they measure the inline fall-back
	// exactly as a production run would. Skipped under -short: each warm-up
	// alone runs 2000 full-size cycles.
	if testing.Short() {
		return
	}
	for _, load := range []float64{0.05, 0.5, 0.9} {
		for _, mode := range []string{"serial", "shard4"} {
			b.Run(fmt.Sprintf("h6/load=%.2f/%s", load, mode), func(b *testing.B) {
				cfg := DefaultConfig(6)
				if mode == "shard4" {
					cfg.Workers = 4
				}
				n, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
				n.Run(2000) // reach steady state before measuring
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
			})
		}
	}

	// Stretch-regime h=8 rows (a=16, 129 groups, 2064 routers, 16512 nodes):
	// the regime the pooled injection front-end opened. Only the edges of the
	// load range — a serial h=8 warm-up alone costs hundreds of milliseconds,
	// so the mid-load rows would triple the suite's wall clock for numbers the
	// h=6 rows already track. The shorter warm-up (500 cycles) reaches a
	// steady in-flight population at these loads; it is not the paper-grade
	// measurement protocol, just a cost tracker.
	for _, load := range []float64{0.05, 0.9} {
		for _, mode := range []string{"serial", "shard4"} {
			b.Run(fmt.Sprintf("h8/load=%.2f/%s", load, mode), func(b *testing.B) {
				cfg := DefaultConfig(8)
				if mode == "shard4" {
					cfg.Workers = 4
				}
				n, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
				n.Run(500)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
			})
		}
	}
}

// BenchmarkStepPhases is the per-phase cost breakdown behind `benchjson
// -phases`: the h=6 system with EnablePhaseTimings on, reporting each Step
// phase (fault application, event delivery, generation/injection, PB
// publication, router stage) as a custom <phase>-ns/op metric next to the
// whole-step ns/op. It is a separate benchmark rather than extra rows in
// StepByLoad so the timing branch's clock reads never contaminate the
// long-tracked StepByLoad baselines. The serial-vs-shard4 (inline vs
// 4-worker pool) pair is the headline the pooled injection front-end is
// judged by: the generate-ns share must drop under shard4 while ns/op does
// not regress.
func BenchmarkStepPhases(b *testing.B) {
	if testing.Short() {
		b.Skip("phase breakdown warms up 2000 full-size h=6 cycles per row")
	}
	for _, load := range []float64{0.5, 0.9} {
		for _, mode := range []string{"serial", "shard4"} {
			b.Run(fmt.Sprintf("h6/load=%.2f/%s", load, mode), func(b *testing.B) {
				cfg := DefaultConfig(6)
				if mode == "shard4" {
					cfg.Workers = 4
				}
				n, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
				n.Run(2000) // reach steady state before measuring
				n.EnablePhaseTimings()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
				b.StopTimer()
				ph := n.PhaseTimings()
				if ph.Cycles > 0 {
					c := float64(ph.Cycles)
					b.ReportMetric(float64(ph.Faults)/c, "faults-ns/op")
					b.ReportMetric(float64(ph.Events)/c, "events-ns/op")
					b.ReportMetric(float64(ph.Generate)/c, "generate-ns/op")
					b.ReportMetric(float64(ph.PB)/c, "pb-ns/op")
					b.ReportMetric(float64(ph.Routers)/c, "routers-ns/op")
				}
			})
		}
	}
}
