package ofar

import (
	"math"
	"runtime"
	"sync"

	"ofar/internal/network"
	"ofar/internal/stats"
	"ofar/internal/traffic"
)

// SteadyResult summarizes one steady-state measurement (one point of the
// paper's latency/throughput-vs-load plots, Figs. 3–5 and 8–9).
type SteadyResult struct {
	Routing Routing
	Pattern string
	Load    float64 // offered, phits/(node·cycle)

	AvgLatency    float64 // generation → delivery, cycles
	AvgNetLatency float64 // injection → delivery, cycles
	P50Latency    float64 // median latency (histogram estimate)
	P99Latency    float64 // 99th-percentile latency (histogram estimate)
	MaxLatency    int64
	AvgHops       float64
	Throughput    float64 // accepted, phits/(node·cycle)

	Delivered       int64
	GlobalMisroutes int64
	LocalMisroutes  int64
	RingEnters      int64
	RingExits       int64

	// Fault-injection outcomes (zero without a Config.Faults schedule).
	Dropped       int64
	FaultReroutes int64
	AffectedFlows int

	// EscapeFraction is the share of delivered packets that entered the
	// escape ring — the paper argues it stays tiny (§IV-C, §VII).
	EscapeFraction float64
}

// RunSteady simulates an open-loop Bernoulli workload: warmup cycles to
// reach steady state, then measure cycles of measurement, and returns the
// averages (paper §VI-A methodology).
func RunSteady(cfg Config, ps PatternSpec, load float64, warmup, measure int) (SteadyResult, error) {
	n, err := network.New(cfg)
	if err != nil {
		return SteadyResult{}, err
	}
	defer n.Close()
	pattern := ps.build(n.Topo)
	n.SetGenerator(traffic.NewBernoulli(pattern, load, cfg.PacketSize))
	n.Stats.EnableHistogram()
	n.Run(warmup)
	return measureSteady(n, pattern.Name(), load, measure)
}

// measureSteady runs the measurement window on an already-warm network and
// collects the steady-state result. It is the shared tail of RunSteady,
// WarmState.Measure and WarmState.MeasureClose: the paths must stay field-for-
// field identical, which is what lets a sweep report the same rows as a
// classic run.
func measureSteady(n *network.Network, pattern string, load float64, measure int) (SteadyResult, error) {
	base := n.Stats
	ringEnters0, gm0, lm0, rx0 := base.RingEnters, base.GlobalMisroutes, base.LocalMisroutes, base.RingExits
	base.StartMeasurement(n.Now())
	n.Run(measure)
	res := SteadyResult{
		Routing:         n.Cfg.Routing,
		Pattern:         pattern,
		Load:            load,
		AvgLatency:      base.AvgLatency(),
		AvgNetLatency:   base.AvgNetworkLatency(),
		P50Latency:      base.LatencyQuantile(0.50),
		P99Latency:      base.LatencyQuantile(0.99),
		MaxLatency:      base.MaxLatency(),
		AvgHops:         base.AvgHops(),
		Throughput:      base.Throughput(n.Now()),
		Delivered:       base.MeasuredPackets(),
		GlobalMisroutes: base.GlobalMisroutes - gm0,
		LocalMisroutes:  base.LocalMisroutes - lm0,
		RingEnters:      base.RingEnters - ringEnters0,
		RingExits:       base.RingExits - rx0,
		Dropped:         base.Dropped,
		FaultReroutes:   base.FaultReroutes,
		AffectedFlows:   base.AffectedFlows(),
	}
	if res.Delivered > 0 {
		res.EscapeFraction = float64(res.RingEnters) / float64(res.Delivered)
	}
	if err := n.CheckConservation(); err != nil {
		return res, err
	}
	return res, nil
}

// RunLoadSweep runs one steady-state point per load, reusing the
// configuration. Each point warms a network and measures on it in place (see
// WarmState.MeasureClose), which is bit-identical to the classic
// warm-then-measure run — pass a warm cache via RunLoadSweepOpt to skip
// warmup entirely on later invocations.
func RunLoadSweep(cfg Config, ps PatternSpec, loads []float64, warmup, measure int) ([]SteadyResult, error) {
	out := make([]SteadyResult, 0, len(loads))
	for _, l := range loads {
		r, _, err := sweepPoint(cfg, ps, l, warmup, measure, SweepOptions{})
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunLoadSweepParallel runs the sweep points concurrently, one network per
// point. Results are identical to RunLoadSweep: every point builds its own
// network whose RNG streams derive only from cfg.Seed, so parallelism does
// not perturb determinism — and neither does cfg.Workers, the intra-network
// worker pool, which is bit-identical to running inline.
//
// The two levels compose, coarsely: workers bounds the sweep's concurrency
// budget (≤ 0 uses GOMAXPROCS), and each concurrently simulated network
// owns a resident pool of cfg.PoolWidth() workers. With the
// spawn-per-cycle engine it was right to divide the caller's budget by
// cfg.Workers — every in-flight network really ran that many goroutines
// every cycle. With the persistent pool that division over-throttles: pool
// workers are resident but *parked* whenever the parallel cutover keeps a
// step inline, which is the whole low-load half of a typical sweep, so a
// small explicit budget (say 3, as the sweep tests pass) would pin the
// sweep to one network while nearly every pool goroutine slept. The cap is
// therefore recalibrated to the machine: max(1, GOMAXPROCS/cfg.PoolWidth())
// in-flight networks — the honest bound for the steady state where every
// network is saturated and every pool busy — further capped by an explicit
// caller budget only when that budget is smaller.
func RunLoadSweepParallel(cfg Config, ps PatternSpec, loads []float64, warmup, measure, workers int) ([]SteadyResult, error) {
	out, _, err := RunLoadSweepOpt(cfg, ps, loads, warmup, measure, SweepOptions{Parallel: workers})
	return out, err
}

// SweepOptions tunes the load-sweep driver beyond the classic signatures.
type SweepOptions struct {
	// Parallel bounds the number of concurrently simulated points
	// (RunLoadSweepParallel semantics; ≤ 0 derives the bound from
	// GOMAXPROCS and cfg.Workers). RunLoadSweep uses a serial loop.
	Parallel int
	// CheckpointDir, when non-empty, receives one warm-state snapshot per
	// sweep point, keyed by (normalized config, pattern, load, warmup).
	CheckpointDir string
	// RestoreDir, when non-empty, is searched for those snapshots first: a
	// hit skips the point's warmup entirely, a miss (or a stale/corrupt
	// entry — e.g. written by a build with different physics) falls back to
	// warming from cycle 0. Point the two at the same directory to get a
	// persistent warm cache across invocations.
	RestoreDir string
	// PhaseSink, when non-nil, turns on per-phase Step timing for each
	// point's measurement window and receives the window's accumulated
	// breakdown once per point. The sink must be safe for concurrent calls
	// (parallel sweeps measure points concurrently). Timing never affects
	// results — only where the wall-clock went (see network.PhaseNanos).
	PhaseSink func(PhaseNanos)
}

// PhaseNanos re-exports the engine's per-phase Step timing breakdown for
// sweep callers (sweepd's /metrics gauges are the main consumer).
type PhaseNanos = network.PhaseNanos

// SweepStats reports how much warm-up work a sweep actually did — the
// observable benefit of the warm cache.
type SweepStats struct {
	Warmed              int   // points that simulated their warmup phase
	Restored            int   // points resumed from a warm snapshot
	WarmupCyclesRun     int64 // cycles spent warming
	WarmupCyclesSkipped int64 // cycles the cache saved
}

// RunLoadSweepOpt is the load sweep with explicit options: concurrency and an
// optional disk warm cache. Results are bit-identical to RunLoadSweep and to
// the classic per-point RunSteady, whichever path each point takes — restored
// warm state is the same state, byte for byte.
func RunLoadSweepOpt(cfg Config, ps PatternSpec, loads []float64, warmup, measure int, opt SweepOptions) ([]SteadyResult, SweepStats, error) {
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nets := workers
	if width := cfg.PoolWidth(); width > 1 {
		// Budget each network's pool width against GOMAXPROCS so the
		// networks in flight never oversubscribe it.
		nets = min(workers, max(1, runtime.GOMAXPROCS(0)/width))
	}
	out := make([]SteadyResult, len(loads))
	errs := make([]error, len(loads))
	restored := make([]bool, len(loads))
	sem := make(chan struct{}, nets)
	var wg sync.WaitGroup
	for i, l := range loads {
		wg.Add(1)
		go func(i int, load float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], restored[i], errs[i] = sweepPoint(cfg, ps, load, warmup, measure, opt)
		}(i, l)
	}
	wg.Wait()
	var st SweepStats
	for _, r := range restored {
		if r {
			st.Restored++
			st.WarmupCyclesSkipped += int64(warmup)
		} else {
			st.Warmed++
			st.WarmupCyclesRun += int64(warmup)
		}
	}
	for _, err := range errs {
		if err != nil {
			return out, st, err
		}
	}
	return out, st, nil
}

// RunSweepPoint produces one steady-state sweep point through the warm-state
// path — exactly the per-point work of RunLoadSweepOpt, exposed for callers
// that schedule points themselves (the sweep service's worker pool). The
// returned flag reports whether the point's warm-up was skipped by a warm
// snapshot from opt.RestoreDir. Results are bit-identical to RunLoadSweep,
// RunLoadSweepOpt and the classic per-point RunSteady.
func RunSweepPoint(cfg Config, ps PatternSpec, load float64, warmup, measure int, opt SweepOptions) (SteadyResult, bool, error) {
	return sweepPoint(cfg, ps, load, warmup, measure, opt)
}

// SaturationLoad estimates the saturation throughput of a configuration
// under a pattern: it offers full load (1.0) and reports the accepted
// throughput, which is the standard way the paper's throughput plateaus
// (Figs. 3b/4b/5b) are read.
func SaturationLoad(cfg Config, ps PatternSpec, warmup, measure int) (float64, error) {
	r, err := RunSteady(cfg, ps, 1.0, warmup, measure)
	if err != nil {
		return 0, err
	}
	return r.Throughput, nil
}

// ReplicatedResult aggregates one metric across seeds.
type ReplicatedResult struct {
	Runs           int
	Throughput     Aggregate
	AvgLatency     Aggregate
	EscapeFraction Aggregate
}

// Aggregate is a mean ± standard deviation across replicated runs.
type Aggregate struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

func aggregate(vals []float64) Aggregate {
	var rep stats.Replication
	a := Aggregate{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		rep.Add(v)
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Mean, a.StdDev = rep.Mean(), rep.StdDev()
	return a
}

// RunReplicated repeats a steady-state experiment with `runs` different
// seeds (cfg.Seed, cfg.Seed+1, …) and aggregates the results. The paper
// notes that some of its plots (e.g. Fig. 9) average several simulations —
// this is the corresponding driver.
func RunReplicated(cfg Config, ps PatternSpec, load float64, warmup, measure, runs int) (ReplicatedResult, error) {
	if runs < 1 {
		runs = 1
	}
	thr := make([]float64, 0, runs)
	lat := make([]float64, 0, runs)
	esc := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		r, err := RunSteady(c, ps, load, warmup, measure)
		if err != nil {
			return ReplicatedResult{}, err
		}
		thr = append(thr, r.Throughput)
		lat = append(lat, r.AvgLatency)
		esc = append(esc, r.EscapeFraction)
	}
	return ReplicatedResult{
		Runs:           runs,
		Throughput:     aggregate(thr),
		AvgLatency:     aggregate(lat),
		EscapeFraction: aggregate(esc),
	}, nil
}

// TransientPoint is one bucket of the latency-by-send-cycle series.
type TransientPoint struct {
	Cycle       int64 // bucket start, relative to the pattern switch
	MeanLatency float64
	Count       int64
}

// TransientResult is the §VI-B measurement: average latency of the packets
// *sent* in each cycle bucket, before and after a traffic-pattern switch.
type TransientResult struct {
	Routing  Routing
	From, To string
	Load     float64
	SwitchAt int64 // absolute cycle of the switch
	Points   []TransientPoint
}

// RunTransient warms the network with pattern `before` for warmup cycles,
// switches to pattern `after`, and keeps simulating: `after` runs for run
// cycles plus drain cycles with generation continuing, so that late
// deliveries fill the send-cycle series. bucket sets the series resolution.
func RunTransient(cfg Config, before, after PatternSpec, load float64, warmup, run, drain, bucket int) (TransientResult, error) {
	n, err := network.New(cfg)
	if err != nil {
		return TransientResult{}, err
	}
	defer n.Close()
	pb := before.build(n.Topo)
	pa := after.build(n.Topo)
	switchAt := int64(warmup)
	n.SetGenerator(traffic.NewTransient(pb, pa, switchAt, load, cfg.PacketSize))
	n.Stats.EnableSeries(bucket)
	n.Run(warmup + run + drain)
	series := n.Stats.Series()
	res := TransientResult{
		Routing:  cfg.Routing,
		From:     pb.Name(),
		To:       pa.Name(),
		Load:     load,
		SwitchAt: switchAt,
	}
	// Report from shortly before the switch through the run window.
	for i := 0; i < series.Len(); i++ {
		cycle, mean, cnt := series.At(i)
		if cycle < switchAt-int64(run)/2 || cycle > switchAt+int64(run) {
			continue
		}
		if cnt == 0 || math.IsNaN(mean) {
			continue
		}
		res.Points = append(res.Points, TransientPoint{Cycle: cycle - switchAt, MeanLatency: mean, Count: cnt})
	}
	return res, nil
}

// DegradationPoint is one point of the fault-degradation curve: steady-state
// performance with a given number of failed global links.
type DegradationPoint struct {
	FailedLinks int
	Throughput  float64 // accepted, phits/(node·cycle)
	AvgLatency  float64
	P99Latency  float64

	Dropped       int64 // packets lost to the fault transient
	FaultReroutes int64 // adaptive decisions forced by a dead minimal port
	AffectedFlows int   // distinct (src,dst) pairs a fault touched
}

// RunDegradation measures OFAR's graceful degradation: for each count in
// 0..maxFailed, the first `count` global links fail at cycle faultAt (during
// warm-up, so the measurement window sees the degraded network in steady
// state), and throughput plus tail latency are recorded. Conservation is
// checked with the explicit Dropped term, so a silently lost packet fails
// the run rather than flattering the curve.
func RunDegradation(cfg Config, ps PatternSpec, load float64, faultAt int64, maxFailed, warmup, measure int) ([]DegradationPoint, error) {
	points := make([]DegradationPoint, 0, maxFailed+1)
	for count := 0; count <= maxFailed; count++ {
		c := cfg
		if count > 0 {
			faults, err := GlobalLinkFaults(cfg, faultAt, count)
			if err != nil {
				return points, err
			}
			c.Faults = faults
		}
		n, err := network.New(c)
		if err != nil {
			return points, err
		}
		pattern := ps.build(n.Topo)
		n.SetGenerator(traffic.NewBernoulli(pattern, load, c.PacketSize))
		n.Stats.EnableHistogram()
		n.Run(warmup)
		n.Stats.StartMeasurement(n.Now())
		n.Run(measure)
		err = n.CheckConservation()
		points = append(points, DegradationPoint{
			FailedLinks:   count,
			Throughput:    n.Stats.Throughput(n.Now()),
			AvgLatency:    n.Stats.AvgLatency(),
			P99Latency:    n.Stats.LatencyQuantile(0.99),
			Dropped:       n.Stats.Dropped,
			FaultReroutes: n.Stats.FaultReroutes,
			AffectedFlows: n.Stats.AffectedFlows(),
		})
		n.Close()
		if err != nil {
			return points, err
		}
	}
	return points, nil
}

// BurstResult is one §VI-C burst-consumption measurement.
type BurstResult struct {
	Routing   Routing
	Pattern   string
	PerNode   int
	Packets   int64
	Cycles    int64 // time to consume the whole burst
	Drained   bool  // false when maxCycles elapsed first
	RingUse   int64 // escape-ring entries during the burst
	GlobalMis int64
	LocalMis  int64
}

// RunBurst injects perNode packets from every node as fast as the network
// accepts them and measures the time until all are delivered.
func RunBurst(cfg Config, ps PatternSpec, perNode, maxCycles int) (BurstResult, error) {
	n, err := network.New(cfg)
	if err != nil {
		return BurstResult{}, err
	}
	defer n.Close()
	pattern := ps.build(n.Topo)
	n.SetGenerator(traffic.NewBurst(pattern, perNode, n.Topo.Nodes))
	drained := n.RunUntilDrained(maxCycles)
	res := BurstResult{
		Routing:   cfg.Routing,
		Pattern:   pattern.Name(),
		PerNode:   perNode,
		Packets:   n.Stats.Delivered,
		Cycles:    n.Now(),
		Drained:   drained,
		RingUse:   n.Stats.RingEnters,
		GlobalMis: n.Stats.GlobalMisroutes,
		LocalMis:  n.Stats.LocalMisroutes,
	}
	if err := n.CheckConservation(); err != nil {
		return res, err
	}
	return res, nil
}
