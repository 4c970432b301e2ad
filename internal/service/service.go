// Package service is the simulation-as-a-service layer: a long-running
// HTTP/JSON server that accepts experiment requests (config + pattern +
// loads + windows), canonicalizes and hashes each point keyed on the
// engine's physics digest, and serves results from a determinism-backed
// cache. Because every run is bit-identical given (config, seed), a cached
// result IS the result: hits return in microseconds with no simulation.
//
// Misses coalesce singleflight-style (N concurrent identical requests → one
// simulation) and run on a bounded worker pool that composes with the
// engine's own parallelism budget; an admission gate sheds load with 429 +
// Retry-After once the queue would blow the configured latency bound.
// Per-point results stream to the client as NDJSON lines as they complete.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ofar"

	"ofar/internal/network"
)

// PointRunner computes one sweep point. The default is ofar.RunSweepPoint
// (the warm-state path RunLoadSweepOpt uses); tests substitute counting or
// blocking runners.
type PointRunner func(cfg ofar.Config, ps ofar.PatternSpec, load float64, warmup, measure int, opt ofar.SweepOptions) (ofar.SteadyResult, bool, error)

// JobsRunner computes one job-set point (per-job statistics included). The
// default is ofar.RunJobs; tests substitute counting runners.
type JobsRunner func(cfg ofar.Config, w ofar.Workload, scale float64, warmup, measure int) (ofar.JobsResult, error)

// Options configures a Server. Zero values pick sensible defaults.
type Options struct {
	// CacheEntries bounds the in-memory result LRU (default 4096).
	CacheEntries int
	// DiskDir, when set, persists results (DiskDir/results) and warm
	// snapshots (DiskDir/warm) across restarts, both written with the
	// atomic temp-file + rename layout of the PR 6 warm cache.
	DiskDir string
	// Sims bounds concurrently executing simulations (default GOMAXPROCS).
	Sims int
	// MaxQueue bounds admitted-but-not-running points; beyond it requests
	// are shed with 429 (default 256).
	MaxQueue int
	// P99Bound, when > 0, sheds requests whose projected wait (queue depth ×
	// observed per-point cost / workers) exceeds it, keeping service latency
	// bounded under overload instead of queueing without limit.
	P99Bound time.Duration
	// MaxLoads bounds points per request (default 64).
	MaxLoads int
	// Runner substitutes the simulation function (tests).
	Runner PointRunner
	// JobsRunnerFn substitutes the job-set simulation function (tests).
	JobsRunnerFn JobsRunner
}

// Server is the sweep service. It implements http.Handler with three
// endpoints: POST /sweep (NDJSON point stream), GET /healthz, GET /metrics.
type Server struct {
	opts    Options
	digest  uint64
	cache   *resultCache
	flights flightGroup
	pool    *simPool
	met     *metrics
	mux     *http.ServeMux
	warmDir string
	runner  PointRunner
	jobsRun JobsRunner
}

// New assembles a server. Close it when done to stop the worker pool.
func New(opts Options) (*Server, error) {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.Sims <= 0 {
		opts.Sims = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 256
	}
	if opts.MaxLoads <= 0 {
		opts.MaxLoads = 64
	}
	s := &Server{
		opts:   opts,
		digest: ofar.EngineDigest(),
		met:    newMetrics(),
		runner: opts.Runner,
	}
	if s.runner == nil {
		s.runner = ofar.RunSweepPoint
	}
	s.jobsRun = opts.JobsRunnerFn
	if s.jobsRun == nil {
		s.jobsRun = ofar.RunJobs
	}
	resultsDir := ""
	if opts.DiskDir != "" {
		resultsDir = opts.DiskDir + "/results"
		s.warmDir = opts.DiskDir + "/warm"
	}
	var err error
	if s.cache, err = newResultCache(opts.CacheEntries, resultsDir, s.digest); err != nil {
		return nil, err
	}
	s.pool = newSimPool(opts.Sims, opts.MaxQueue)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Close stops the worker pool after the queue drains. Call only once no
// requests are in flight (e.g. after http.Server.Shutdown).
func (s *Server) Close() { s.pool.Close() }

// EngineDigest returns the physics fingerprint baked into every cache key.
func (s *Server) EngineDigest() uint64 { return s.digest }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintf(w, "ok engine=%016x snapshot=v%d\n", s.digest, network.SnapshotVersion)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.writeTo(w, s.pool, s.cache)
}

// PointResponse is one NDJSON line of a sweep response: a completed point
// with its provenance — "cache" (no simulation), "computed" (this request
// led the simulation) or "coalesced" (joined another request's simulation).
// ElapsedUS is the service time of the point: for cache hits the lookup
// itself, for computed points queueing + simulation.
type PointResponse struct {
	Type      string          `json:"type"` // "point"
	Index     int             `json:"index"`
	Load      float64         `json:"load"`
	Key       string          `json:"key"`
	Source    string          `json:"source"`
	ElapsedUS int64           `json:"elapsed_us"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// SummaryResponse is the final NDJSON line of a sweep response.
type SummaryResponse struct {
	Type      string `json:"type"` // "summary"
	Points    int    `json:"points"`
	CacheHits int    `json:"cache_hits"`
	Computed  int    `json:"computed"`
	Coalesced int    `json:"coalesced"`
	Errors    int    `json:"errors"`
	ElapsedUS int64  `json:"elapsed_us"`
	Engine    string `json:"engine"`
}

// errorResponse is the body of a non-200 answer.
type errorResponse struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
}

// reqState tracks one request's reservations so unused ones are returned.
type reqState struct {
	reserved int64 // pool slots this request reserved and has not yet used
}

// consume uses one of the request's reservations if any remain; the pool
// clamps over-consumption from racing leaders.
func (rs *reqState) consume() {
	if atomic.AddInt64(&rs.reserved, -1) < 0 {
		atomic.AddInt64(&rs.reserved, 1)
	}
}

func writeJSONError(w http.ResponseWriter, code int, resp errorResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST a sweep request"})
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, errorResponse{Error: "parsing request: " + err.Error()})
		return
	}
	res, err := resolveRequest(req, s.opts.MaxLoads)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	keys := make([]uint64, len(res.loads))
	for i, l := range res.loads {
		keys[i] = pointKey(res.canon, res.patternName(), l, res.warmup, res.measure, s.digest)
	}

	// Admission: count the points that would create NEW work — not cached,
	// not already in flight, not duplicated within this request — and
	// reserve pool slots for exactly those before anything streams. A
	// request that only reads the cache or piggybacks on open flights is
	// always admitted; one that would overflow the queue (or the latency
	// bound) is shed before any simulation starts.
	newWork := 0
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if s.cache.Has(k) || s.flights.Pending(k) {
			continue
		}
		newWork++
	}
	rs := &reqState{}
	if newWork > 0 {
		retry, ok := s.pool.Admit(newWork, s.opts.P99Bound, s.met.pointCost())
		if !ok {
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			writeJSONError(w, http.StatusTooManyRequests, errorResponse{
				Error:      "overloaded: admission queue full or latency bound exceeded",
				RetryAfter: retry.Seconds(),
			})
			return
		}
		rs.reserved = int64(newWork)
	}
	defer func() {
		if n := atomic.LoadInt64(&rs.reserved); n > 0 {
			s.pool.Release(int(n))
		}
	}()
	s.met.requests.Add(1)

	// Stream points as they complete. Each point runs in its own goroutine
	// (cache hits return instantly; misses wait on the pool), and the
	// response is one NDJSON line per point plus a final summary.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	start := time.Now()
	lines := make(chan PointResponse, len(res.loads))
	for i := range res.loads {
		go func(i int) {
			lines <- s.point(rs, res, keys[i], i)
		}(i)
	}
	var sum SummaryResponse
	enc := json.NewEncoder(w)
	for range res.loads {
		line := <-lines
		sum.Points++
		switch line.Source {
		case "cache":
			sum.CacheHits++
		case "computed":
			sum.Computed++
		case "coalesced":
			sum.Coalesced++
		}
		if line.Error != "" {
			sum.Errors++
		}
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum.Type = "summary"
	sum.ElapsedUS = time.Since(start).Microseconds()
	sum.Engine = fmt.Sprintf("%016x", s.digest)
	enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

// point produces one sweep point: result cache, then singleflight, then the
// admission-controlled pool. The returned line carries the result bytes
// exactly as the simulation marshaled them, so identical points are
// byte-identical across cache hits, coalesced waits and fresh computations.
func (s *Server) point(rs *reqState, res resolved, key uint64, index int) PointResponse {
	line := PointResponse{
		Type:  "point",
		Index: index,
		Load:  res.loads[index],
		Key:   fmt.Sprintf("%016x", key),
	}
	start := time.Now()
	if data, ok := s.cache.Get(key); ok {
		s.met.hits.Add(1)
		line.Source = "cache"
		line.Result = data
		line.ElapsedUS = time.Since(start).Microseconds()
		s.met.observePoint(time.Since(start))
		return line
	}
	data, shared, err := s.flights.Do(key, func() ([]byte, error) {
		// Double-check under the flight: the leader may have completed
		// between our cache probe and this flight opening.
		if data, ok := s.cache.Get(key); ok {
			return data, nil
		}
		rs.consume()
		var (
			out  []byte
			rerr error
		)
		done := make(chan struct{})
		s.pool.Submit(res.cfg.PoolWidth(), func() {
			defer close(done)
			t0 := time.Now()
			if res.jobs != nil {
				r, err := s.jobsRun(res.cfg, *res.jobs, res.loads[index], res.warmup, res.measure)
				s.met.observeSim(time.Since(t0))
				if err != nil {
					rerr = err
					return
				}
				out, rerr = json.Marshal(r)
				return
			}
			r, restored, err := s.runner(res.cfg, res.ps, res.loads[index], res.warmup, res.measure, s.sweepOptions())
			s.met.observeSim(time.Since(t0))
			if err != nil {
				rerr = err
				return
			}
			if restored {
				s.met.restored.Add(1)
			}
			out, rerr = json.Marshal(r)
		})
		<-done
		if rerr != nil {
			return nil, rerr
		}
		s.cache.Add(key, out)
		return out, nil
	})
	line.ElapsedUS = time.Since(start).Microseconds()
	s.met.observePoint(time.Since(start))
	if shared {
		s.met.coalesced.Add(1)
		line.Source = "coalesced"
	} else {
		s.met.misses.Add(1)
		line.Source = "computed"
	}
	if err != nil {
		s.met.errored.Add(1)
		line.Error = err.Error()
		return line
	}
	line.Result = data
	return line
}

// sweepOptions builds the per-point SweepOptions: serial within the point
// (the pool provides cross-point concurrency); with a disk directory
// configured, the shared warm-snapshot cache so a long point's warm-up runs
// once and later requests for it restore the warm state instead; and the
// metrics phase sink, so /metrics can report where the service's simulation
// seconds go per Step phase.
func (s *Server) sweepOptions() ofar.SweepOptions {
	return ofar.SweepOptions{
		Parallel:      1,
		CheckpointDir: s.warmDir,
		RestoreDir:    s.warmDir,
		PhaseSink:     s.met.observePhases,
	}
}

// ErrClosed is returned by helpers once the server is closed.
var ErrClosed = errors.New("service: server closed")
