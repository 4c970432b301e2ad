package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ofar"
	"ofar/internal/service"
)

// sweepdWorkload drives an in-process sweep service on loopback with a closed
// loop of clients, each sending its next request once the previous answer
// has been read. The requests are a seeded sequence of single-point h=3
// sweeps: most repeat an earlier request (cache hits), the rest are cold —
// classic points, job-set points, and points that share an earlier point's
// warm state with a longer window, which restore its warm snapshot from disk.
type sweepdWorkload struct {
	h               int
	clients         int
	warmup, measure int
}

const (
	sdSequence = 20000 // generated requests; a run stops at --seconds
	sdBlock    = 10    // requests per block of the sequence
	sdNew      = 2     // cold points per block; the rest repeat earlier requests
	sdPhysics  = 6     // leading classic points, loads 0.1–0.3 × UN/ADV, that give accepted_load and latency_p99_cycles
	sdSetups   = 9     // cold server starts timed for setup_s
)

// sdRequest is one generated request and what the generator knows of it.
type sdRequest struct {
	body   []byte
	req    service.Request
	kind   string // "classic", "jobs" or "warm"
	point  int    // index of the distinct point, in order of first use
	cycles int    // warm-up + measurement cycles the point represents
}

// requests generates the run's request sequence from the seed alone. The
// sequence is stratified so that every run, however far it gets, sends the
// same mix: each block of sdBlock requests holds sdNew cold points, and the
// cold points cycle through fixed decks of kinds, patterns and loads in
// seeded order. The first sdPhysics cold points are classic points at fixed
// loads, whose results give accepted_load and latency_p99_cycles.
func (w sweepdWorkload) requests(seed uint64) ([]sdRequest, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	patterns := []string{"UN", fmt.Sprintf("ADV+%d", w.h)}
	kinds := []string{"classic", "classic", "classic", "jobs", "warm"}
	loads := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35}
	scales := []float64{0.5, 0.75, 1}
	nextKind, nextScale := deck(rng, len(kinds)), deck(rng, len(scales))
	nextClassic := deck(rng, len(patterns)*len(loads))
	anchor := rng.Perm(sdPhysics)

	var points []sdRequest
	var classic []service.Request
	seen := map[string]bool{}
	newPoint := func() (sdRequest, error) {
		for {
			s := uint64(rng.Intn(1_000_000) + 1)
			p := sdRequest{kind: "classic"}
			if len(points) >= sdPhysics {
				p.kind = kinds[nextKind()]
			}
			switch p.kind {
			case "warm":
				p.req = classic[rng.Intn(len(classic))]
				p.req.Measure = w.measure * (2 + rng.Intn(3)) / 2
			case "jobs":
				p.req = service.Request{H: w.h, Seed: &s, Jobs: "stencil:3x3x3@0.3,a2a:16@0.4",
					Loads: []float64{scales[nextScale()]}, Warmup: w.warmup, Measure: w.measure}
			default:
				c := nextClassic()
				pattern, load := patterns[c%len(patterns)], loads[c/len(patterns)]
				if i := len(points); i < sdPhysics {
					pattern, load = patterns[anchor[i]%len(patterns)], 0.1*float64(1+anchor[i]/len(patterns))
				}
				p.req = service.Request{H: w.h, Seed: &s, Pattern: pattern, Loads: []float64{load}, Warmup: w.warmup, Measure: w.measure}
			}
			b, err := json.Marshal(p.req)
			if err != nil {
				return p, err
			}
			if seen[string(b)] {
				continue
			}
			seen[string(b)] = true
			if p.kind == "classic" {
				classic = append(classic, p.req)
			}
			p.body, p.point, p.cycles = b, len(points), p.req.Warmup+p.req.Measure
			return p, nil
		}
	}
	seq := make([]sdRequest, 0, sdSequence)
	for len(seq) < sdSequence {
		block := make([]bool, sdBlock) // true: a cold point
		for _, i := range rng.Perm(sdBlock)[:sdNew] {
			block[i] = true
		}
		if len(points) == 0 {
			block[0] = true // nothing to repeat yet
		}
		for _, cold := range block {
			if !cold {
				seq = append(seq, points[rng.Intn(len(points))])
				continue
			}
			p, err := newPoint()
			if err != nil {
				return nil, err
			}
			points = append(points, p)
			seq = append(seq, p)
		}
	}
	return seq, nil
}

// deck returns a draw function over 0..n-1 that deals every index once per
// round, each round in a fresh seeded order.
func deck(rng *rand.Rand, n int) func() int {
	var order []int
	return func() int {
		if len(order) == 0 {
			order = rng.Perm(n)
		}
		i := order[0]
		order = order[1:]
		return i
	}
}

// sdServer is one in-process sweep service listening on loopback.
type sdServer struct {
	svc  *service.Server
	http *http.Server
	url  string
	done chan error
}

// startServer builds a service over a fresh cache directory, starts serving
// on loopback and waits until it answers /healthz. It also returns the
// server's start-up time: from building the service until it accepts
// connections. The first round trip is left out; it times the HTTP client's
// connection set-up and goroutine wake-ups, not the server.
func startServer(dir string, client *http.Client) (*sdServer, time.Duration, error) {
	t := time.Now()
	svc, err := service.New(service.Options{DiskDir: dir})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, 0, err
	}
	s := &sdServer{svc: svc, http: &http.Server{Handler: svc}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	startup := time.Since(t)
	resp, err := client.Get(s.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, startup, nil
}

// coldStartMain is the child process that times one cold start of the sweep
// service: from service.New, which computes the engine digest once per
// process, until the listener accepts connections. args holds the cache
// directory. It prints the time in seconds.
func coldStartMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench sweepd-start DIR")
		return 2
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	srv, startup, err := startServer(args[0], client)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: sweep service start: %v\n", err)
		return 1
	}
	srv.stop()
	fmt.Println(startup.Seconds())
	return 0
}

// coldStart runs coldStartMain in a child process of this program over dir
// and returns the start-up time it measured. A sweepd process pays the
// engine digest on its first start only, so a start is timed cold in a
// process of its own.
func coldStart(dir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "sweepd-start", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold start of the sweep service: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// cacheDir creates a fresh, empty result and warm-snapshot cache layout for
// one server under root. Creating it is the run's isolation, not part of the
// server's start-up: directory creation on a journaling file system varies by
// a factor of two from run to run and would swamp the start-up time.
func cacheDir(root, name string) (string, error) {
	dir := root + "/" + name
	for _, sub := range []string{"results", "warm"} {
		if err := os.MkdirAll(dir+"/"+sub, 0o755); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// stop shuts the listener down, waits for the serve loop and in-flight
// requests to end, then stops the service's simulation pool.
func (s *sdServer) stop() {
	s.http.Shutdown(context.Background())
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: sweep service: %v\n", err)
	}
	s.svc.Close()
}

// metrics scrapes the service's /metrics exposition into name → value.
func (s *sdServer) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// sdOutcome is one answered (or failed) request.
type sdOutcome struct {
	req     int // index into the sequence
	latency time.Duration
	status  int
	points  []service.PointResponse
	err     error
}

// loop runs the closed loop against s until seconds have passed or the
// sequence is exhausted, and returns every outcome and the loop's wall time.
// It always sends the requests up to the last of the sequence's leading
// sdPhysics points, whose results the simulated metrics are taken from. With
// a host reference, the loop runs in refSamples segments of equal length,
// and the reference is sampled before each while no request is in flight.
func (w sweepdWorkload) loop(s *sdServer, client *http.Client, seq []sdRequest, seconds float64, ref *hostRef) ([]sdOutcome, time.Duration) {
	lead := 0
	for lead < len(seq) && seq[lead].point < sdPhysics-1 {
		lead++
	}
	segments := 1
	if ref != nil {
		segments = refSamples
	}
	var mu sync.Mutex
	var out []sdOutcome
	var wall time.Duration
	next := 0
	for seg := 0; seg < segments; seg++ {
		ref.sample()
		end := time.Duration(seconds * float64(seg+1) / float64(segments) * float64(time.Second))
		start := time.Now()
		// take hands out the next request, unless the segment is over.
		take := func() (int, bool) {
			mu.Lock()
			defer mu.Unlock()
			if next >= len(seq) || (next > lead && wall+time.Since(start) >= end) {
				return 0, false
			}
			next++
			return next - 1, true
		}
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, ok := take(); ok; i, ok = take() {
					o := w.send(s, client, seq, i)
					mu.Lock()
					out = append(out, o)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
	}
	return out, wall
}

func (w sweepdWorkload) send(s *sdServer, client *http.Client, seq []sdRequest, i int) sdOutcome {
	o := sdOutcome{req: i}
	t := time.Now()
	resp, err := client.Post(s.url+"/sweep", "application/json", bytes.NewReader(seq[i].body))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	o.latency = time.Since(t)
	if err != nil {
		o.err = err
		return o
	}
	if o.status != http.StatusOK {
		return o
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var line service.PointResponse
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			o.err = err
			break
		}
		if line.Type == "point" {
			o.points = append(o.points, line)
		}
	}
	if o.err == nil && len(o.points) != len(seq[i].req.Loads) {
		o.err = fmt.Errorf("%d points answered for %d loads", len(o.points), len(seq[i].req.Loads))
	}
	return o
}

// loopStats is what the checks and metrics read from one loop.
type loopStats struct {
	results  map[string][]byte // point key → result bytes
	kinds    map[string]string // point key → generator kind
	pointIdx map[int]string    // distinct point index → key
	wall     time.Duration
	done     int // requests answered with 200
	shed     int // 429s
	all      []float64
	hits     []float64 // latencies of requests served from the cache
	misses   []float64 // latencies of requests that computed or coalesced
	overhead []float64 // client latency minus server time on hits
	pointSim []float64 // server time of computed points
	computed []sdPoint
	coalesce int
	points   int
	hitPts   int
	restores float64 // computed points that restored a warm snapshot (/metrics)
}

// cycles is the number of cycles the loop's computed points simulated. A
// point that restored its warm state from a snapshot simulated only its
// measurement window; every point of the sequence warms up for warmup cycles.
func (st loopStats) cycles(warmup int) float64 {
	var c float64
	for _, p := range st.computed {
		c += float64(p.cycles)
	}
	return c - st.restores*float64(warmup)
}

type sdPoint struct {
	key    string
	kind   string
	cycles int
}

// evaluate checks one loop's outcomes and summarizes them. Every answer for
// the same point must carry the same result bytes, whether it was computed,
// coalesced or read from the cache.
func (w sweepdWorkload) evaluate(r *result, seq []sdRequest, outs []sdOutcome, wall time.Duration) loopStats {
	st := loopStats{results: map[string][]byte{}, kinds: map[string]string{}, pointIdx: map[int]string{}, wall: wall}
	r.attempted += len(outs)
	for _, o := range outs {
		switch {
		case o.err != nil:
			r.fail("request %d: %v", o.req, o.err)
			continue
		case o.status == http.StatusTooManyRequests:
			st.shed++
			r.fail("request %d: shed with 429", o.req)
			continue
		case o.status != http.StatusOK:
			r.fail("request %d: status %d", o.req, o.status)
			continue
		}
		st.done++
		lat := ms(o.latency)
		st.all = append(st.all, lat)
		hit := true
		for _, p := range o.points {
			st.points++
			if p.Error != "" {
				r.fail("request %d: point %s: %s", o.req, p.Key, p.Error)
				hit = false
				continue
			}
			if prev, ok := st.results[p.Key]; ok && !bytes.Equal(prev, p.Result) {
				r.fail("point %s: %s answer differs from an earlier answer for the same point", p.Key, p.Source)
			} else if !ok {
				st.results[p.Key] = append([]byte(nil), p.Result...)
				st.kinds[p.Key] = seq[o.req].kind
			}
			if _, ok := st.pointIdx[seq[o.req].point]; !ok {
				st.pointIdx[seq[o.req].point] = p.Key
			}
			switch p.Source {
			case "cache":
				st.hitPts++
				st.overhead = append(st.overhead, lat-float64(p.ElapsedUS)/1e3)
			case "computed":
				hit = false
				st.pointSim = append(st.pointSim, float64(p.ElapsedUS)/1e3)
				st.computed = append(st.computed, sdPoint{p.Key, seq[o.req].kind, seq[o.req].cycles})
			default:
				hit = false
				st.coalesce++
			}
		}
		if hit {
			st.hits = append(st.hits, lat)
		} else {
			st.misses = append(st.misses, lat)
		}
	}
	return st
}

// steady decodes the aggregate steady-state figures of a point's result.
func steady(kind string, b []byte) (ofar.SteadyResult, error) {
	if kind == "jobs" {
		var jr ofar.JobsResult
		err := json.Unmarshal(b, &jr)
		return jr.Agg, err
	}
	var sr ofar.SteadyResult
	err := json.Unmarshal(b, &sr)
	return sr, err
}

// verify recomputes the first classic and the first job-set point directly,
// without the service, and compares the bytes the service returned.
func (w sweepdWorkload) verify(r *result, seq []sdRequest, st loopStats) {
	done := map[string]bool{}
	for _, q := range seq {
		key, ok := st.pointIdx[q.point]
		if !ok || done[q.kind] || q.kind == "warm" {
			continue
		}
		done[q.kind] = true
		cfg := ofar.DefaultConfig(q.req.H)
		cfg.Seed = *q.req.Seed
		var got any
		var err error
		if q.kind == "jobs" {
			var wl ofar.Workload
			if wl, err = ofar.ParseWorkload(q.req.Jobs); err == nil {
				got, err = ofar.RunJobs(cfg, wl, q.req.Loads[0], q.req.Warmup, q.req.Measure)
			}
		} else {
			var ps ofar.PatternSpec
			if ps, err = ofar.ParsePattern(q.req.Pattern, q.req.H); err == nil {
				got, _, err = ofar.RunSweepPoint(cfg, ps, q.req.Loads[0], q.req.Warmup, q.req.Measure, ofar.SweepOptions{})
			}
		}
		var b []byte
		if err == nil {
			b, err = json.Marshal(got)
		}
		switch {
		case err != nil:
			r.fail("direct %s recomputation: %v", q.kind, err)
		case !bytes.Equal(b, st.results[key]):
			r.fail("the service's %s point %s differs from a direct run of the same request", q.kind, key)
		}
		if done["classic"] && done["jobs"] {
			return
		}
	}
}

func (w sweepdWorkload) run(seed uint64, seconds float64, traced bool, ref *hostRef) (*result, error) {
	r := newResult()
	seq, err := w.requests(seed)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "perfbench-sweepd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var setup []float64
	for i := 0; i < sdSetups; i++ {
		dir, err := cacheDir(root, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		startup, err := coldStart(dir)
		if err != nil {
			return nil, err
		}
		setup = append(setup, startup)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	defer client.CloseIdleConnections()
	dir, err := cacheDir(root, "loop")
	if err != nil {
		return nil, err
	}
	srv, _, err := startServer(dir, client)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := cpuTime()
	outs, wall := w.loop(srv, client, seq, seconds, ref)
	cpu := cpuTime() - cpu0
	if traced {
		runtime.ReadMemStats(&m1)
	}
	met, err := srv.metrics(client)
	srv.stop()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	st := w.evaluate(r, seq, outs, wall)
	st.restores = met["sweepd_warm_restores_total"]
	w.verify(r, seq, st)

	if traced {
		if err := w.traced(r, seed, st, met, memDelta(m0, m1), len(outs)); err != nil {
			return nil, err
		}
	} else {
		v := r.values
		v["setup_s"] = median(setup)
		r.cpuRate = st.cycles(w.warmup) / cpu.Seconds()
		v["peak_rss_mb"] = peakRSSMB()
		var acc, p99, n float64
		for i := 0; i < sdPhysics; i++ {
			key, ok := st.pointIdx[i]
			if !ok {
				r.fail("the run did not reach distinct point %d of the sequence", i)
				continue
			}
			sr, err := steady(st.kinds[key], st.results[key])
			if err != nil {
				r.fail("decoding point %s: %v", key, err)
				continue
			}
			acc += sr.Throughput
			p99 += sr.P99Latency
			n++
		}
		v["accepted_load"] = acc / n
		v["latency_p99_cycles"] = p99 / n
	}
	h := fnv.New64a()
	for i := 0; i < sdPhysics; i++ {
		h.Write(st.results[st.pointIdx[i]])
	}
	r.digests["engine"] = fmt.Sprintf("%016x", ofar.EngineDigest())
	r.digests["results"] = fmt.Sprintf("%016x", h.Sum64())
	return r, nil
}

// traced derives the per-layer metrics of a loop run with memory statistics
// around it, from its outcomes and the server's /metrics, and probes the
// layers under the service. The service records its Step phase timings on
// every request, traced or not, so there is no untraced loop to set a
// tracing overhead against: trace.overhead reads 0.
func (w sweepdWorkload) traced(r *result, seed uint64, st loopStats, met map[string]float64, mem runtime.MemStats, sent int) error {
	cfg := ofar.DefaultConfig(w.h)
	cfg.Seed = seed
	topo, err := topologyBuild(cfg, setupReps)
	if err != nil {
		return err
	}
	sim, build, err := buildSim(cfg, ofar.Uniform(), 0.3, setupReps)
	if err != nil {
		return err
	}
	sim.Close()

	cyc := st.cycles(w.warmup)
	var delivered, misroutes, rings, hops float64
	for _, p := range st.computed {
		sr, err := steady(p.kind, st.results[p.key])
		if err != nil {
			return err
		}
		delivered += float64(sr.Delivered)
		misroutes += float64(sr.GlobalMisroutes + sr.LocalMisroutes)
		rings += float64(sr.RingEnters)
		hops += sr.AvgHops * float64(sr.Delivered)
	}
	ph := ofar.PhaseNanos{Cycles: int64(met["sweepd_step_phase_cycles_total"])}
	for name, dst := range map[string]*int64{"faults": &ph.Faults, "events": &ph.Events, "generate": &ph.Generate, "pb": &ph.PB, "routers": &ph.Routers} {
		*dst = int64(met[`sweepd_step_phase_seconds_total{phase="`+name+`"}`] * 1e9)
	}
	v := r.values
	v["trace.overhead"] = 0
	v["wall.cycles_per_s"] = cyc / st.wall.Seconds()
	v["wall.op_p50_ms"] = quantile(st.all, 0.5)
	v["wall.op_p90_ms"] = quantile(st.all, 0.9)
	v["topology.build_ms"] = topo
	v["network.new_ms"] = median(durationsMs(build))
	setPhases(v, ph, 0, delivered)
	v["network.routers_speedup_w2"] = 0 // every simulation runs one worker
	v["core.misroutes_per_packet"] = ratio(misroutes, delivered)
	v["router.escape_fraction"] = ratio(rings, delivered)
	v["traffic.source_blocked_ratio"] = 0 // not part of a point's result
	v["stats.avg_hops"] = ratio(hops, delivered)
	v["mem.allocs_per_cycle"] = ratio(float64(mem.Mallocs), cyc)
	v["mem.alloc_bytes_per_cycle"] = ratio(float64(mem.TotalAlloc), cyc)
	v["mem.gc_count"] = float64(mem.NumGC)
	ps, err := ofar.ParsePattern("UN", w.h)
	if err != nil {
		return err
	}
	if err := checkpointProbe(v, cfg, ps, 0.3, w.warmup); err != nil {
		r.fail("checkpoint probe: %v", err)
		zero(v, "checkpoint.")
	}
	v["service.hit_ratio"] = ratio(float64(st.hitPts), float64(st.points))
	v["service.coalesced_ratio"] = ratio(float64(st.coalesce), float64(st.points))
	v["service.warm_restore_ratio"] = ratio(st.restores, float64(len(st.computed)))
	v["service.shed_ratio"] = ratio(float64(st.shed), float64(sent))
	v["service.point_sim_ms"] = quantileOr0(st.pointSim, 0.5)
	v["service.hit_overhead_ms"] = quantileOr0(st.overhead, 0.5)
	v["service.hit_p50_ms"] = quantileOr0(st.hits, 0.5)
	v["service.hit_p99_ms"] = quantileOr0(st.hits, 0.99)
	v["service.miss_p50_ms"] = quantileOr0(st.misses, 0.5)
	v["service.miss_p90_ms"] = quantileOr0(st.misses, 0.9)
	v["service.requests_per_s"] = float64(st.done) / st.wall.Seconds()
	return nil
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
