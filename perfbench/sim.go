package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ofar"
	"ofar/internal/topology"
)

// simWorkload is one long warm-then-measure run at a single operating point,
// driven through NewSimulator/SetTraffic/Step with no Fork: h6-adv-sat and
// h8-un-sat.
type simWorkload struct {
	h       int
	pattern string
	load    float64
	workers int // the untraced run's pool width, sharded by group
	warmup  int
	// window is the measurement window's length in cycles per second of
	// --seconds. The window is fixed so the simulated statistics and the
	// grant digest are a function of the seed alone; it is sized to take
	// about --seconds on a 2-CPU host.
	window int
}

// physics is everything a run simulates: two runs of the same seed must
// agree on all of it, whatever the worker count or instrumentation.
type physics struct {
	accepted, p99, avgHops          uint64 // float64 bits, compared exactly
	delivered, misroutes, ringEnter int64
	generated, blocked              int64
	digest                          uint64
	digestEvents                    int64
}

func (p physics) acceptedLoad() float64 { return math.Float64frombits(p.accepted) }
func (p physics) p99Latency() float64   { return math.Float64frombits(p.p99) }
func (p physics) hops() float64         { return math.Float64frombits(p.avgHops) }

// simPass is one run: set-up, warm-up and the measured window.
type simPass struct {
	setup    []time.Duration // NewSimulator + SetTraffic CPU time, per repetition
	phys     physics
	window   time.Duration    // wall time of the window's Steps
	cpu      time.Duration    // process CPU time of the window
	steps    []time.Duration  // wall time of every Step of the window
	phases   ofar.PhaseNanos  // traced passes only
	mem      runtime.MemStats // traced passes only: window delta
	problems []string
}

const setupReps = 9

func (w simWorkload) config(seed uint64, workers int) ofar.Config {
	cfg := ofar.DefaultConfig(w.h)
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.ShardByGroup = workers > 1
	return cfg
}

// buildSim assembles the network reps times, keeping the last, and returns
// the process CPU time each assembly took. Before each assembly the previous
// network is released, collected and its memory returned to the operating
// system, and the collector is paused while the network is built. Every
// repetition then faults in the same fresh pages, as the first build of a
// process does, and runs no collection: when collections start during a
// build depends on the heap the build inherits, and it changed a build's
// time by up to 2x from one repetition to the next.
func buildSim(cfg ofar.Config, ps ofar.PatternSpec, load float64, reps int) (*ofar.Simulator, []time.Duration, error) {
	var times []time.Duration
	var sim *ofar.Simulator
	for i := 0; i < reps; i++ {
		if sim != nil {
			sim.Close()
			sim = nil
		}
		debug.FreeOSMemory()
		gc := debug.SetGCPercent(-1)
		c := cpuTime()
		s, err := ofar.NewSimulator(cfg)
		if err == nil {
			s.SetTraffic(ps, load)
			times = append(times, cpuTime()-c)
		}
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, nil, err
		}
		sim = s
	}
	return sim, times, nil
}

// pass runs the workload once: set-up, warm-up, then the fixed window, with
// refSamples pauses for the host reference spread evenly over the window.
func (w simWorkload) pass(seed uint64, workers int, seconds float64, traced bool, ref *hostRef) (simPass, error) {
	var p simPass
	ps, err := ofar.ParsePattern(w.pattern, w.h)
	if err != nil {
		return p, err
	}
	sim, setup, err := buildSim(w.config(seed, workers), ps, w.load, setupReps)
	if err != nil {
		return p, err
	}
	defer sim.Close()
	p.setup = setup
	net, st := sim.Network(), sim.Stats()
	net.EnableGrantDigest()
	st.EnableHistogram()
	sim.Run(w.warmup)

	gen0, blk0 := st.Generated, st.SourceBlocked
	mis0, ring0 := st.GlobalMisroutes+st.LocalMisroutes, st.RingEnters
	var m0 runtime.MemStats
	if traced {
		net.EnablePhaseTimings()
		runtime.ReadMemStats(&m0)
	}
	cycles := max(1, int(math.Round(float64(w.window)*seconds)))
	p.steps = make([]time.Duration, 0, cycles)
	st.StartMeasurement(sim.Now())
	every := max(1, cycles/refSamples)
	cpu0 := cpuTime()
	for i := 0; i < cycles; i++ {
		if i%every == 0 {
			ref.sample()
		}
		t := time.Now()
		sim.Step()
		d := time.Since(t)
		p.steps = append(p.steps, d)
		p.window += d
	}
	p.cpu = cpuTime() - cpu0
	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		p.mem = memDelta(m0, m1)
		p.phases = net.PhaseTimings()
	}
	p.phys.accepted = math.Float64bits(st.Throughput(sim.Now()))
	p.phys.p99 = math.Float64bits(st.LatencyQuantile(0.99))
	p.phys.avgHops = math.Float64bits(st.AvgHops())
	p.phys.delivered = st.MeasuredPackets()
	p.phys.misroutes = st.GlobalMisroutes + st.LocalMisroutes - mis0
	p.phys.ringEnter = st.RingEnters - ring0
	p.phys.generated = st.Generated - gen0
	p.phys.blocked = st.SourceBlocked - blk0
	p.phys.digest, p.phys.digestEvents = net.GrantDigest()
	if err := net.CheckConservation(); err != nil {
		p.problems = append(p.problems, "conservation: "+err.Error())
	}
	if p.phys.delivered == 0 {
		p.problems = append(p.problems, "no packet was delivered in the window")
	}
	return p, nil
}

// cyclesPerCPUSecond is the window's cycles per second of process CPU time,
// garbage collection and every other periodic cost included.
func (p simPass) cyclesPerCPUSecond() float64 {
	return float64(len(p.steps)) / p.cpu.Seconds()
}

// cyclesPerSecond is the window's cycles per wall-clock second.
func (p simPass) cyclesPerSecond() float64 {
	return float64(len(p.steps)) / p.window.Seconds()
}

func memDelta(a, b runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		Mallocs:    b.Mallocs - a.Mallocs,
		TotalAlloc: b.TotalAlloc - a.TotalAlloc,
		NumGC:      b.NumGC - a.NumGC,
	}
}

func (w simWorkload) run(seed uint64, seconds float64, traced bool, ref *hostRef) (*result, error) {
	if traced {
		return w.traced(seed, seconds)
	}
	r := newResult()
	p, err := w.pass(seed, w.workers, seconds, false, ref)
	if err != nil {
		return nil, err
	}
	r.attempted = len(p.steps)
	r.failAll(p.problems)
	r.values["setup_s"] = median(durationsMs(p.setup)) / 1e3
	r.cpuRate = p.cyclesPerCPUSecond()
	r.values["peak_rss_mb"] = peakRSSMB()
	r.values["accepted_load"] = p.phys.acceptedLoad()
	r.values["latency_p99_cycles"] = p.phys.p99Latency()
	w.digests(r, p.phys)
	return r, nil
}

func (w simWorkload) digests(r *result, ph physics) {
	r.digests["engine"] = fmt.Sprintf("%016x", ofar.EngineDigest())
	r.digests["grant"] = fmt.Sprintf("%016x/%d", ph.digest, ph.digestEvents)
}

// traced runs the window three times on fresh networks of the same seed:
// untraced at the workload's width, traced at that width, and traced with
// one worker for the router stage's scaling. All three must simulate
// identically — the observers and the pool width are not allowed to touch
// the physics.
func (w simWorkload) traced(seed uint64, seconds float64) (*result, error) {
	r := newResult()
	plain, err := w.pass(seed, w.workers, seconds, false, nil)
	if err != nil {
		return nil, err
	}
	tw, err := w.pass(seed, w.workers, seconds, true, nil)
	if err != nil {
		return nil, err
	}
	t1, err := w.pass(seed, 1, seconds, true, nil)
	if err != nil {
		return nil, err
	}
	for _, p := range []simPass{plain, tw, t1} {
		r.attempted += len(p.steps)
		r.failAll(p.problems)
	}
	r.check(tw.phys == plain.phys, "traced run simulated differently from the untraced run: %+v vs %+v", tw.phys, plain.phys)
	r.check(t1.phys == plain.phys, "1-worker run simulated differently from the %d-worker run: %+v vs %+v", w.workers, t1.phys, plain.phys)

	topo, err := topologyBuild(w.config(seed, w.workers), setupReps)
	if err != nil {
		return nil, err
	}
	cyc := float64(tw.phases.Cycles)
	v := r.values
	v["trace.overhead"] = tw.cyclesPerCPUSecond() / plain.cyclesPerCPUSecond()
	v["wall.cycles_per_s"] = plain.cyclesPerSecond()
	v["wall.op_p50_ms"] = quantile(durationsMs(plain.steps), 0.5)
	v["wall.op_p90_ms"] = quantile(durationsMs(plain.steps), 0.9)
	v["topology.build_ms"] = topo
	v["network.new_ms"] = median(durationsMs(tw.setup))
	setPhases(v, tw.phases, float64(tw.window.Nanoseconds()), float64(tw.phys.delivered))
	v["network.routers_speedup_w2"] = ratio(float64(t1.phases.Routers), float64(tw.phases.Routers))
	del := float64(tw.phys.delivered)
	v["core.misroutes_per_packet"] = ratio(float64(tw.phys.misroutes), del)
	v["router.escape_fraction"] = ratio(float64(tw.phys.ringEnter), del)
	v["traffic.source_blocked_ratio"] = ratio(float64(tw.phys.blocked), float64(tw.phys.generated+tw.phys.blocked))
	v["stats.avg_hops"] = tw.phys.hops()
	v["mem.allocs_per_cycle"] = float64(tw.mem.Mallocs) / cyc
	v["mem.alloc_bytes_per_cycle"] = float64(tw.mem.TotalAlloc) / cyc
	v["mem.gc_count"] = float64(tw.mem.NumGC)
	// Neither checkpoints nor the service are on this workload's path.
	zero(v, "checkpoint.", "service.")
	w.digests(r, tw.phys)
	return r, nil
}

// setPhases derives the per-cycle Step phase costs. wallNs is the wall time
// the phases were accumulated over (0 when the caller cannot observe it, as
// inside the sweep service); delivered is the packet count of the same
// windows.
func setPhases(v map[string]float64, ph ofar.PhaseNanos, wallNs, delivered float64) {
	cyc := float64(ph.Cycles)
	sum := float64(ph.Faults + ph.Events + ph.Generate + ph.PB + ph.Routers)
	v["network.events_ns_per_cycle"] = ratio(float64(ph.Events), cyc)
	v["network.generate_ns_per_cycle"] = ratio(float64(ph.Generate), cyc)
	v["network.routers_ns_per_cycle"] = ratio(float64(ph.Routers), cyc)
	v["network.other_ns_per_cycle"] = 0
	wall := sum
	if wallNs > 0 {
		v["network.other_ns_per_cycle"] = ratio(wallNs-sum, cyc)
		wall = wallNs
	}
	v["network.ns_per_delivered_packet"] = ratio(wall, delivered)
}

// topologyBuild is the median time to build the configuration's topology
// alone, in ms.
func topologyBuild(cfg ofar.Config, reps int) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if _, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t)))
	}
	return median(times), nil
}

// zero sets every per-layer metric under the given prefixes to 0: layers the
// workload does not exercise.
func zero(v map[string]float64, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				v[m.name] = 0
			}
		}
	}
}
