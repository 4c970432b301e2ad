package service

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"

	"ofar"
)

// Request is one experiment submission: a configuration (explicit, or the
// paper's DefaultConfig(h)) with optional routing and seed overrides, a
// traffic pattern or job set, a list of offered loads, and the
// warm-up/measurement window. Each (config, traffic, load) triple is one
// independently cacheable point. A request resolves through ofar.Resolve,
// like the commands' flags: the request and the equivalent flags name the
// same configuration and the same cache keys.
type Request struct {
	// H builds the paper's DefaultConfig(h) when Config is absent (default 3).
	H int `json:"h,omitempty"`
	// Config, when present, is the base configuration; Routing and Seed
	// still override it.
	Config *ofar.Config `json:"config,omitempty"`
	// Routing overrides the mechanism (MIN, VAL, PB, UGAL-L, PAR, OFAR,
	// OFAR-L) through Config.SetRouting: the VC-ordered mechanisms drop the
	// escape ring, PAR gets at least 4 local/injection VCs.
	Routing string `json:"routing,omitempty"`
	// Seed overrides the RNG seed (part of the cache key: different seeds
	// are different experiments).
	Seed *uint64 `json:"seed,omitempty"`

	Pattern string    `json:"pattern,omitempty"` // UN, ADV+<n>, MIX1..3, ... (default UN)
	Loads   []float64 `json:"loads"`
	Warmup  int       `json:"warmup,omitempty"`  // cycles (default 3000)
	Measure int       `json:"measure,omitempty"` // cycles (default 5000)

	// Jobs switches the request to a job-level workload (mutually exclusive
	// with Pattern): the ofar.ParseWorkload syntax, e.g.
	// "stencil:4x4x4@0.3,a2a:32@0.5". Loads then act as scale factors on
	// every job's load, and each point's result is an ofar.JobsResult. The
	// workload's canonical name becomes the pattern component of the cache
	// key, so job-set points live in the same cache as classic ones.
	Jobs string `json:"jobs,omitempty"`
	// JobMap is "linear" (default) or "random" placement.
	JobMap string `json:"job_map,omitempty"`
	// Background is uniform load on nodes no job occupies.
	Background float64 `json:"background,omitempty"`
}

// resolved is a fully canonicalized request: the resolved experiment plus
// defaulted windows. Everything that determines the simulation is in here;
// everything that doesn't (field order, absent-vs-zero JSON, wall-clock
// execution settings) has been normalized away.
type resolved struct {
	ofar.Resolved
	loads   []float64 // offered loads, or scale factors for job sets
	warmup  int
	measure int
	canon   []byte // CanonicalConfigJSON(Config)
}

const (
	defaultWarmup  = 3000
	defaultMeasure = 5000
	// maxCycles bounds warmup+measure per request: sized far above any
	// experiment in the repo (the paper's runs are ≤ 10^4 cycles) while
	// keeping a single request from monopolizing the service for hours.
	maxCycles = 10_000_000
	// maxWorkers bounds the per-network pool width a request may demand.
	maxWorkers = 64
)

// resolveRequest resolves a request through ofar.Resolve, then applies the
// service's own defaults and caps.
func resolveRequest(req Request, maxLoads int) (resolved, error) {
	var r resolved
	h := cmp.Or(req.H, 3)
	if req.Config == nil && (h < 1 || h > 8) {
		return r, fmt.Errorf("h %d outside [1,8]", h)
	}
	x, err := ofar.Resolve(ofar.Experiment{
		Config: req.Config, H: h, Routing: req.Routing, Seed: req.Seed,
		Pattern: req.Pattern, Jobs: req.Jobs, JobMap: req.JobMap, Background: req.Background,
	})
	if err != nil {
		return r, err
	}
	r.Resolved = x
	if r.Config.Workers > maxWorkers {
		return r, fmt.Errorf("workers %d exceeds the service cap %d", r.Config.Workers, maxWorkers)
	}
	if r.Jobs != nil && req.Background > 2 {
		return r, fmt.Errorf("background %v outside [0, 2]", req.Background)
	}
	if len(req.Loads) == 0 {
		return r, fmt.Errorf("loads must name at least one offered load")
	}
	if len(req.Loads) > maxLoads {
		return r, fmt.Errorf("%d loads exceed the per-request cap %d", len(req.Loads), maxLoads)
	}
	for _, l := range req.Loads {
		if math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 || l > 2 {
			return r, fmt.Errorf("load %v outside (0, 2]", l)
		}
	}
	r.loads = req.Loads
	r.warmup = cmp.Or(req.Warmup, defaultWarmup)
	r.measure = cmp.Or(req.Measure, defaultMeasure)
	if r.warmup < 0 || r.measure < 1 {
		return r, fmt.Errorf("warmup/measure must be ≥ 0 / ≥ 1")
	}
	if r.warmup+r.measure > maxCycles {
		return r, fmt.Errorf("warmup+measure %d exceeds the service cap %d cycles", r.warmup+r.measure, maxCycles)
	}
	r.canon, err = ofar.CanonicalConfigJSON(r.Config)
	return r, err
}

// pointKey is the cache identity of one sweep point: FNV-1a over the
// canonical (execution-normalized) config JSON, the pattern, the exact load
// bits, the warm-up and measurement windows, and the engine digest. Folding
// the digest in means a build whose physics changed computes disjoint keys —
// a stale result is unreachable, not merely detectable.
func pointKey(canonCfg []byte, pattern string, load float64, warmup, measure int, digest uint64) uint64 {
	h := fnv.New64a()
	h.Write(canonCfg)
	fmt.Fprintf(h, "|%s|%016x|%d|%d|%016x", pattern, math.Float64bits(load), warmup, measure, digest)
	return h.Sum64()
}
