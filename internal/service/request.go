package service

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"ofar"
)

// Request is one experiment submission: a configuration (explicit, or the
// paper's DefaultConfig(h) with optional routing/seed overrides — the same
// shorthand the sweep CLI offers), a traffic pattern, a list of offered
// loads, and the warm-up/measurement window. Each (config, pattern, load)
// triple is one independently cacheable point.
type Request struct {
	// H builds the paper's DefaultConfig(h) when Config is absent (default 3).
	H int `json:"h,omitempty"`
	// Config, when present, is used verbatim (then Routing/Seed still apply).
	Config *ofar.Config `json:"config,omitempty"`
	// Routing overrides the mechanism (MIN, VAL, PB, UGAL-L, PAR, OFAR,
	// OFAR-L), with the CLI's conventions: baselines drop the escape ring,
	// PAR gets its 4 local/injection VCs.
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

// resolved is a fully canonicalized request: a validated configuration and
// pattern plus defaulted windows. Everything that determines the simulation
// is in here; everything that doesn't (field order, absent-vs-zero JSON,
// wall-clock execution settings) has been normalized away.
type resolved struct {
	cfg     ofar.Config
	ps      ofar.PatternSpec
	jobs    *ofar.Workload // non-nil for job-set requests; ps is then unused
	loads   []float64      // offered loads, or scale factors for job sets
	warmup  int
	measure int
	canon   []byte // CanonicalConfigJSON(cfg)
}

// patternName returns the cache-key pattern component: the workload's
// canonical name for job-set requests, the pattern label otherwise.
func (r *resolved) patternName() string {
	if r.jobs != nil {
		return r.jobs.Name()
	}
	return r.ps.Name()
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

func resolveRequest(req Request, maxLoads int) (resolved, error) {
	var r resolved
	if req.Config != nil {
		r.cfg = *req.Config
	} else {
		h := req.H
		if h == 0 {
			h = 3
		}
		if h < 1 || h > 8 {
			return r, fmt.Errorf("h %d outside [1,8]", h)
		}
		r.cfg = ofar.DefaultConfig(h)
	}
	if req.Seed != nil {
		r.cfg.Seed = *req.Seed
	}
	if req.Routing != "" {
		r.cfg.Routing = ofar.Routing(strings.ToUpper(strings.TrimSpace(req.Routing)))
		if r.cfg.Routing == ofar.PAR && (r.cfg.LocalVCs < 4 || r.cfg.InjVCs < 4) {
			r.cfg.LocalVCs, r.cfg.InjVCs = 4, 4
		}
		switch r.cfg.Routing {
		case ofar.MIN, ofar.VAL, ofar.PB, ofar.UGAL, ofar.PAR:
			r.cfg.Ring = ofar.RingNone
		}
	}
	if r.cfg.Workers > maxWorkers {
		return r, fmt.Errorf("workers %d exceeds the service cap %d", r.cfg.Workers, maxWorkers)
	}
	if err := r.cfg.Validate(); err != nil {
		return r, err
	}
	if req.Jobs != "" {
		if req.Pattern != "" {
			return r, fmt.Errorf("pattern and jobs are mutually exclusive")
		}
		w, err := ofar.ParseWorkload(req.Jobs)
		if err != nil {
			return r, fmt.Errorf("parsing jobs: %w", err)
		}
		switch strings.ToLower(strings.TrimSpace(req.JobMap)) {
		case "", "linear":
		case "random":
			w.RandomMap = true
		default:
			return r, fmt.Errorf("job_map %q: want linear or random", req.JobMap)
		}
		if math.IsNaN(req.Background) || math.IsInf(req.Background, 0) || req.Background < 0 || req.Background > 2 {
			return r, fmt.Errorf("background %v outside [0, 2]", req.Background)
		}
		w.Background = req.Background
		r.jobs = &w
	} else {
		pat := req.Pattern
		if pat == "" {
			pat = "UN"
		}
		ps, err := ofar.ParsePattern(pat, r.cfg.H)
		if err != nil {
			return r, err
		}
		r.ps = ps
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
	r.warmup = req.Warmup
	if r.warmup == 0 {
		r.warmup = defaultWarmup
	}
	r.measure = req.Measure
	if r.measure == 0 {
		r.measure = defaultMeasure
	}
	if r.warmup < 0 || r.measure < 1 {
		return r, fmt.Errorf("warmup/measure must be ≥ 0 / ≥ 1")
	}
	if r.warmup+r.measure > maxCycles {
		return r, fmt.Errorf("warmup+measure %d exceeds the service cap %d cycles", r.warmup+r.measure, maxCycles)
	}
	canon, err := ofar.CanonicalConfigJSON(r.cfg)
	if err != nil {
		return r, err
	}
	r.canon = canon
	return r, nil
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
