package ofar

import (
	"fmt"
	"testing"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// Benchmarks regenerate each figure of the paper's evaluation at bench
// scale (h=2 unless noted: 72 nodes, short windows) and report the figure's
// metric via b.ReportMetric, so `go test -bench .` doubles as a quick
// regeneration of every table/figure. cmd/experiments produces the full
// series at h=3/h=6.

const (
	benchWarm = 1500
	benchMeas = 2500
)

func benchCfg(rt Routing, h int) Config {
	cfg := DefaultConfig(h)
	cfg.SetRouting(rt)
	return cfg
}

// BenchmarkFig2b: VAL saturation for a benign and a pathological offset.
func BenchmarkFig2b(b *testing.B) {
	for _, off := range []int{1, 2} { // h=2: ADV+2 is the ADV+h worst case
		b.Run(fmt.Sprintf("ADV+%d", off), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				r, err := RunSteady(benchCfg(VAL, 2), Adv(off), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

func benchSteady(b *testing.B, rt Routing, ps PatternSpec, load float64) {
	b.Helper()
	var lat, thr float64
	for i := 0; i < b.N; i++ {
		r, err := RunSteady(benchCfg(rt, 2), ps, load, benchWarm, benchMeas)
		if err != nil {
			b.Fatal(err)
		}
		lat, thr = r.AvgLatency, r.Throughput
	}
	b.ReportMetric(lat, "cycles-latency")
	b.ReportMetric(thr, "phits/node/cycle")
}

// BenchmarkFig3: uniform traffic — latency at 0.2 load and saturation
// throughput for each mechanism.
func BenchmarkFig3(b *testing.B) {
	for _, rt := range []Routing{MIN, PB, OFAR, OFARL} {
		b.Run(string(rt)+"/load0.2", func(b *testing.B) { benchSteady(b, rt, Uniform(), 0.2) })
		b.Run(string(rt)+"/saturation", func(b *testing.B) { benchSteady(b, rt, Uniform(), 1.0) })
	}
}

// BenchmarkFig4: ADV+2.
func BenchmarkFig4(b *testing.B) {
	for _, rt := range []Routing{VAL, PB, OFAR, OFARL} {
		b.Run(string(rt), func(b *testing.B) { benchSteady(b, rt, Adv(2), 1.0) })
	}
}

// BenchmarkFig5: ADV+h (h=3 here so that ADV+h and ADV+2 differ, matching
// the paper's distinction between Figs. 4 and 5).
func BenchmarkFig5(b *testing.B) {
	for _, rt := range []Routing{VAL, PB, OFAR, OFARL} {
		b.Run(string(rt), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				r, err := RunSteady(benchCfg(rt, 3), Adv(3), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// BenchmarkFig6: transient adaptation — the latency penalty right after the
// UN→ADV+2 switch (mean of the first 500 post-switch cycles).
func BenchmarkFig6(b *testing.B) {
	for _, rt := range []Routing{PB, OFAR, OFARL} {
		b.Run(string(rt), func(b *testing.B) {
			var penalty float64
			for i := 0; i < b.N; i++ {
				res, err := RunTransient(benchCfg(rt, 2), Uniform(), Adv(2), 0.14,
					benchWarm, 1500, 2500, 100)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				var n int
				for _, p := range res.Points {
					if p.Cycle >= 0 && p.Cycle < 500 {
						sum += p.MeanLatency
						n++
					}
				}
				if n > 0 {
					penalty = sum / float64(n)
				}
			}
			b.ReportMetric(penalty, "cycles-post-switch")
		})
	}
}

// BenchmarkFig7: burst consumption time per mechanism on MIX1.
func BenchmarkFig7(b *testing.B) {
	for _, rt := range []Routing{PB, OFAR, OFARL} {
		b.Run(string(rt), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				res, err := RunBurst(benchCfg(rt, 2), PaperMixes(2)[0], 50, 10_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Drained {
					b.Fatal("burst not drained")
				}
				cycles = float64(res.Cycles)
			}
			b.ReportMetric(cycles, "cycles-to-drain")
		})
	}
}

// BenchmarkFig8: OFAR with physical vs embedded escape ring.
func BenchmarkFig8(b *testing.B) {
	for _, mode := range []RingMode{RingPhysical, RingEmbedded} {
		b.Run(mode.String(), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.Ring = mode
				r, err := RunSteady(cfg, Adv(2), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// BenchmarkFig9: full vs reduced VC configuration under adversarial load.
func BenchmarkFig9(b *testing.B) {
	for _, reduced := range []bool{false, true} {
		name := "fullVC"
		if reduced {
			name = "reducedVC"
		}
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.Ring = RingEmbedded
				if reduced {
					cfg.LocalVCs, cfg.GlobalVCs, cfg.InjVCs = 2, 1, 2
				}
				r, err := RunSteady(cfg, Adv(2), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// --- ablation benches (DESIGN.md §7) ----------------------------------------

// BenchmarkAblationThreshold: the misroute-threshold knobs of both
// policies — the §IV-B static candidate bound and the §V variable factor.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, static := range []float64{0.2, 0.4, 0.8} {
		b.Run(fmt.Sprintf("static%.1f", static), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.OFAR.StaticNonMin = static
				r, err := RunSteady(cfg, Adv(2), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
	for _, factor := range []float64{0.5, 0.9, 1.0} {
		b.Run(fmt.Sprintf("variable%.1f", factor), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.OFAR = DefaultOFARVariableConfig()
				cfg.OFAR.NonMinFactor = factor
				r, err := RunSteady(cfg, Adv(2), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// BenchmarkAblationEscapeTimeout: how soon blocked packets divert to the
// escape ring.
func BenchmarkAblationEscapeTimeout(b *testing.B) {
	for _, to := range []int{0, 32, 256} {
		b.Run(fmt.Sprintf("timeout%d", to), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.OFAR.EscapeTimeout = to
				r, err := RunSteady(cfg, Adv(2), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// BenchmarkAblationMultiRing: one vs two embedded escape rings.
func BenchmarkAblationMultiRing(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("rings%d", k), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.Ring = RingEmbedded
				cfg.NumRings = k
				r, err := RunSteady(cfg, Adv(2), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// --- engine micro-benchmarks -------------------------------------------------

// BenchmarkSimCycle measures raw simulation speed: cycles per second of an
// h=3 network under moderate uniform load.
func BenchmarkSimCycle(b *testing.B) {
	cfg := DefaultConfig(3)
	s, err := NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.SetTraffic(Uniform(), 0.3)
	s.Run(2000) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSimCycleSaturated: the worst-case per-cycle cost (every buffer
// occupied, maximal routing work).
func BenchmarkSimCycleSaturated(b *testing.B) {
	cfg := DefaultConfig(3)
	s, err := NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.SetTraffic(Adv(3), 1.0)
	s.Run(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMinimalPort: topology routing-table lookup cost.
func BenchmarkMinimalPort(b *testing.B) {
	d, err := topology.NewBalanced(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += d.MinimalPort(i%d.Routers, (i*7)%d.Nodes)
	}
	_ = acc
}

// BenchmarkTrafficGen: pattern destination sampling.
func BenchmarkTrafficGen(b *testing.B) {
	d, _ := topology.NewBalanced(6)
	for _, name := range []string{"UN", "ADV", "MIX"} {
		b.Run(name, func(b *testing.B) {
			sim, _ := NewSimulator(DefaultConfig(2))
			_ = sim
			var p traffic.Pattern
			switch name {
			case "UN":
				p = traffic.NewUniform(d)
			case "ADV":
				p = traffic.NewAdv(d, 6)
			default:
				p = traffic.NewMix("m", []traffic.Pattern{traffic.NewUniform(d), traffic.NewAdv(d, 6)}, []float64{1, 1})
			}
			rng := newBenchRNG()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				acc += p.Dest(rng, i%d.Nodes)
			}
			_ = acc
		})
	}
}

// BenchmarkAblationSelection tests the §IV-B claim that random misroute
// candidate selection outperforms always picking the least-occupied output
// (which synchronizes competing inputs onto the same port).
func BenchmarkAblationSelection(b *testing.B) {
	for _, least := range []bool{false, true} {
		name := "random"
		if least {
			name = "leastOccupied"
		}
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 3)
				cfg.OFAR.LeastOccupied = least
				r, err := RunSteady(cfg, Adv(3), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// BenchmarkAblationAllocIters: the paper's separable allocator runs 3
// arbitration iterations ("resembling the design in [22]"); this measures
// what the iterations buy.
func BenchmarkAblationAllocIters(b *testing.B) {
	for _, iters := range []int{1, 3} {
		b.Run(fmt.Sprintf("iters%d", iters), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(OFAR, 2)
				cfg.AllocIters = iters
				r, err := RunSteady(cfg, Uniform(), 1.0, benchWarm, benchMeas)
				if err != nil {
					b.Fatal(err)
				}
				thr = r.Throughput
			}
			b.ReportMetric(thr, "phits/node/cycle")
		})
	}
}

// BenchmarkAblationPolicy: the §IV-B static threshold policy (repository
// default) against the paper's §V variable policy, on both traffic kinds.
func BenchmarkAblationPolicy(b *testing.B) {
	cases := []struct {
		name string
		ps   PatternSpec
	}{{"UN", Uniform()}, {"ADVh", Adv(2)}}
	for _, c := range cases {
		for _, variable := range []bool{false, true} {
			name := c.name + "/static"
			if variable {
				name = c.name + "/variable"
			}
			b.Run(name, func(b *testing.B) {
				var thr float64
				for i := 0; i < b.N; i++ {
					cfg := benchCfg(OFAR, 2)
					if variable {
						cfg.OFAR = DefaultOFARVariableConfig()
					}
					r, err := RunSteady(cfg, c.ps, 1.0, benchWarm, benchMeas)
					if err != nil {
						b.Fatal(err)
					}
					thr = r.Throughput
				}
				b.ReportMetric(thr, "phits/node/cycle")
			})
		}
	}
}
