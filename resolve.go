package ofar

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// Experiment is an experiment as a user states it to a front-end: a base
// configuration, overrides and traffic. The commands fill it from their
// shared flags, the sweep service from a request, and both resolve it with
// Resolve, so the same experiment gets the same configuration everywhere.
type Experiment struct {
	Config *Config // the base configuration; nil means DefaultConfig(H)
	H      int

	// Overrides of the base; the zero value keeps the base's setting.
	Routing          string  // case-insensitive, applied by Config.SetRouting
	Seed             *uint64 // RNG seed
	Faults           []Fault // replaces the base's fault schedule
	Workers, Cutover *int    // pool workers and inline cutover (wall-clock only)

	// Traffic: a ParsePattern pattern (default UN) or a ParseWorkload job
	// set with its placement ("linear" or "random") and background load.
	Pattern, Jobs, JobMap string
	Background            float64
}

// Resolved is a resolved Experiment: a validated configuration and its
// traffic, a pattern or (when Jobs is non-nil) a job set.
type Resolved struct {
	Config  Config
	Pattern PatternSpec
	Jobs    *Workload
}

// TrafficName is the job set's canonical name or the pattern's label.
func (r Resolved) TrafficName() string {
	if r.Jobs != nil {
		return r.Jobs.Name()
	}
	return r.Pattern.Name()
}

// Resolve applies an experiment's overrides to its base configuration,
// validates the result and parses the traffic against it.
func Resolve(e Experiment) (Resolved, error) {
	var r Resolved
	if e.Config != nil {
		r.Config = *e.Config
	} else {
		r.Config = DefaultConfig(e.H)
	}
	c := &r.Config
	if e.Routing != "" {
		c.SetRouting(Routing(strings.ToUpper(strings.TrimSpace(e.Routing))))
	}
	if e.Seed != nil {
		c.Seed = *e.Seed
	}
	if e.Faults != nil {
		c.Faults = e.Faults
	}
	if e.Workers != nil {
		c.Workers = *e.Workers
	}
	if e.Cutover != nil {
		c.ParallelCutover = *e.Cutover
	}
	if err := c.Validate(); err != nil {
		return r, err
	}
	if e.Jobs == "" {
		var err error
		r.Pattern, err = ParsePattern(cmp.Or(e.Pattern, "UN"), c.H)
		return r, err
	}
	if e.Pattern != "" {
		return r, fmt.Errorf("ofar: a pattern and a job set are mutually exclusive")
	}
	w, err := ParseWorkload(e.Jobs)
	if err != nil {
		return r, fmt.Errorf("ofar: parsing jobs: %w", err)
	}
	switch strings.ToLower(strings.TrimSpace(e.JobMap)) {
	case "", "linear":
	case "random":
		w.RandomMap = true
	default:
		return r, fmt.Errorf("ofar: job mapping %q: want linear or random", e.JobMap)
	}
	if math.IsNaN(e.Background) || math.IsInf(e.Background, 0) || e.Background < 0 {
		return r, fmt.Errorf("ofar: background load %v: want a finite load ≥ 0", e.Background)
	}
	w.Background = e.Background
	r.Jobs = &w
	return r, nil
}
