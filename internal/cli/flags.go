// Package cli holds the flags the simulator's commands (ofarsim, sweep,
// experiments) share and resolves them through ofar.Resolve, so the same
// flags give the same configuration in every command. Flags only one
// command has stay in its main.go.
package cli

import (
	"flag"

	"ofar"
)

// Flags are the parsed values of the shared flags.
type Flags struct {
	H, Warmup, Measure, Workers, Cutover int
	Seed                                 uint64
	Faults, Checkpoint, Restore          string

	// Routing and traffic; registered only when asked for (see Register).
	Routing, Pattern, Jobs, JobMap string
	Background                     float64

	fs *flag.FlagSet
}

// Register defines the shared flags on fs. With traffic it also defines
// -routing, -pattern, -jobs, -jobmap and -bg, which experiments leaves out
// because its figures fix their own routings and traffic.
func Register(fs *flag.FlagSet, traffic bool) *Flags {
	f := &Flags{fs: fs}
	fs.IntVar(&f.H, "h", 3, "dragonfly parameter h (balanced: p=h, a=2h, max groups; 6 = paper scale)")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed")
	fs.IntVar(&f.Warmup, "warmup", 3000, "warm-up cycles")
	fs.IntVar(&f.Measure, "measure", 5000, "measurement cycles")
	fs.IntVar(&f.Workers, "workers", 0, "pool workers per network, at most one per group (0/1 = inline; results are bit-identical)")
	fs.IntVar(&f.Cutover, "cutover", 0, "work size (active routers, due events) below which a pooled phase runs inline (0 = auto-calibrate from -workers)")
	fs.StringVar(&f.Faults, "faults", "", "fault schedule: a JSON file of Fault objects, or inline like link@5000:12:7,router@20000:3")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "write post-warmup warm snapshots here: a file for a single run, a directory of per-point snapshots for sweeps (reuse with -restore)")
	fs.StringVar(&f.Restore, "restore", "", "resume from warm snapshots instead of simulating warmup: a file for a single run, a directory for sweeps (same config and physics required; results are bit-identical, stale entries re-warm)")
	if traffic {
		fs.StringVar(&f.Routing, "routing", "OFAR", "routing mechanism: MIN, VAL, PB, UGAL-L, PAR, OFAR, OFAR-L (the VC-ordered ones drop the escape ring)")
		fs.StringVar(&f.Pattern, "pattern", "UN", "traffic pattern: UN, ADV+<n>, MIX1, MIX2, MIX3")
		fs.StringVar(&f.Jobs, "jobs", "", "job-level workload instead of -pattern: kind:size@load[,...] with kinds stencil (size XxYxZ), a2a, ring, ps")
		fs.StringVar(&f.JobMap, "jobmap", "linear", "job placement: linear (consecutive nodes) or random (seeded permutation)")
		fs.Float64Var(&f.Background, "bg", 0, "uniform background load on nodes no job occupies")
	}
	return f
}

// Set reports whether the named flag of the flag set was given on the
// command line.
func (f *Flags) Set(name string) bool {
	set := false
	f.fs.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// Resolve resolves the flags on base (nil means DefaultConfig(-h)) through
// ofar.Resolve. A flag given on the command line overrides the base; an
// absent one keeps it. The defaults of -routing, -seed, -workers and
// -cutover are DefaultConfig's own values, so without a base the two
// readings agree.
func (f *Flags) Resolve(base *ofar.Config) (ofar.Resolved, error) {
	e := ofar.Experiment{Config: base, H: f.H, Jobs: f.Jobs, JobMap: f.JobMap, Background: f.Background}
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "routing":
			e.Routing = f.Routing
		case "pattern":
			e.Pattern = f.Pattern
		case "seed":
			e.Seed = &f.Seed
		case "workers":
			e.Workers = &f.Workers
		case "cutover":
			e.Cutover = &f.Cutover
		}
	})
	if f.Faults != "" {
		fs, err := ofar.LoadFaults(f.Faults)
		if err != nil {
			return ofar.Resolved{}, err
		}
		e.Faults = fs
	}
	return ofar.Resolve(e)
}
