// Command ofarsim runs a single steady-state dragonfly simulation and
// prints latency, throughput and routing statistics.
//
// Examples:
//
//	ofarsim -h 3 -routing OFAR -pattern ADV+3 -load 0.5
//	ofarsim -h 6 -routing PB -pattern UN -load 0.3 -warmup 5000 -measure 10000
//	ofarsim -h 3 -routing OFAR -ring embedded -rings 2 -pattern ADV+3 -load 1.0
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ofar"
	"ofar/internal/cli"
)

// options are ofarsim's flags: the shared ones and its own.
type options struct {
	*cli.Flags
	groups, rings, escapeTO                       *int
	load, nonMin, static                          *float64
	traceOut, traceIn, confPath, cpuProf, memProf *string
	quiet, dumpConf                               *bool
	ring                                          ofar.RingMode
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{
		Flags:    cli.Register(fs, true),
		groups:   fs.Int("groups", 0, "group count (0 = maximum size a*h+1)"),
		load:     fs.Float64("load", 0.3, "offered load in phits/(node*cycle); with -jobs, a scale factor on every job when given"),
		rings:    fs.Int("rings", 1, "number of escape rings"),
		nonMin:   fs.Float64("nonmin-factor", 0.9, "OFAR variable threshold factor"),
		static:   fs.Float64("static-th", -1, "OFAR static non-minimal threshold (<0 = variable policy)"),
		escapeTO: fs.Int("escape-timeout", 32, "blocked cycles before requesting the escape ring"),
		traceOut: fs.String("trace-out", "", "record every generated packet to this trace file"),
		traceIn:  fs.String("trace-in", "", "replay a trace file instead of generating traffic (overrides -pattern/-jobs/-load)"),
		quiet:    fs.Bool("q", false, "print a single CSV row instead of the report"),
		confPath: fs.String("config", "", "load the full network config from a JSON file (replaces -h and the topology/router flags; explicitly given shared flags still override it)"),
		dumpConf: fs.Bool("dump-config", false, "print the effective config as JSON and exit"),
		cpuProf:  fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file"),
		memProf:  fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file"),
		ring:     ofar.RingPhysical,
	}
	fs.Var(&o.ring, "ring", "escape ring: none, physical, embedded")
	return o
}

// resolve builds the run's configuration and traffic: the -config file, or
// DefaultConfig(-h) with ofarsim's topology and router flags, under the
// shared flags' overrides.
func (o *options) resolve() (ofar.Resolved, error) {
	if *o.confPath != "" {
		base, err := ofar.LoadConfig(*o.confPath)
		if err != nil {
			return ofar.Resolved{}, err
		}
		return o.Resolve(&base)
	}
	base := ofar.DefaultConfig(o.H)
	base.Groups = *o.groups
	base.Ring = o.ring
	base.NumRings = *o.rings
	base.OFAR.NonMinFactor = *o.nonMin
	base.OFAR.StaticNonMin = *o.static
	base.OFAR.EscapeTimeout = *o.escapeTO
	return o.Resolve(&base)
}

// networkLine is the report's first line: the effective network.
func networkLine(cfg ofar.Config) string {
	groups := cmp.Or(cfg.Groups, cfg.A*cfg.H+1)
	return fmt.Sprintf("network       : h=%d (p=%d a=%d groups=%d, %d nodes), %s escape ring x%d",
		cfg.H, cfg.P, cfg.A, groups, cfg.P*cfg.A*groups, cfg.Ring, cfg.NumRings)
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()

	if *o.cpuProf != "" {
		f, err := os.Create(*o.cpuProf)
		if err != nil {
			fatal("creating CPU profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *o.memProf != "" {
		defer func() {
			f, err := os.Create(*o.memProf)
			if err != nil {
				fatal("creating heap profile: %v", err)
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("writing heap profile: %v", err)
			}
		}()
	}

	x, err := o.resolve()
	if err != nil {
		fatal("%v", err)
	}
	cfg, ps := x.Config, x.Pattern
	if *o.dumpConf {
		data, err := ofar.ConfigToJSON(cfg)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(data))
		return
	}

	// Trace replay: re-inject a recorded stream through a fresh network. A
	// trace recorded by this build reproduces its run's grant digest
	// bit-identically, which is what the printed digest line is for.
	if *o.traceIn != "" {
		if x.Jobs != nil || o.Checkpoint != "" || o.Restore != "" {
			fatal("-trace-in composes with none of -jobs, -checkpoint, -restore")
		}
		recs, engine, err := ofar.LoadTrace(*o.traceIn)
		if err != nil {
			fatal("%v", err)
		}
		if engine != 0 && engine != ofar.EngineDigest() {
			fmt.Fprintf(os.Stderr, "ofarsim: warning: trace written by engine %016x, this build is %016x — replay will not be bit-identical\n",
				engine, ofar.EngineDigest())
		}
		res, digest, err := ofar.ReplayTrace(cfg, recs, o.Warmup, o.Measure)
		if err != nil {
			fatal("replay failed: %v", err)
		}
		if *o.quiet {
			printRow(res)
		} else {
			fmt.Printf("replayed      : %d records from %s\n", len(recs), *o.traceIn)
			fmt.Printf("avg latency   : %.1f cycles\n", res.AvgLatency)
			fmt.Printf("throughput    : %.4f phits/(node*cycle)\n", res.Throughput)
			fmt.Printf("delivered     : %d packets in the measurement window\n", res.Delivered)
		}
		fmt.Printf("grant digest  : %016x\n", digest)
		return
	}

	// Job-level workload: N concurrent jobs with per-job statistics.
	if x.Jobs != nil {
		if o.Checkpoint != "" || o.Restore != "" {
			fatal("-jobs does not compose with -checkpoint/-restore yet")
		}
		// Jobs carry their own loads; -load is a scale factor on all of
		// them, applied only when given explicitly (its 0.3 default is the
		// single-pattern convention, not a sensible implicit job scaling).
		scale := 1.0
		if o.Set("load") {
			scale = *o.load
		}
		var (
			jr     ofar.JobsResult
			digest uint64
		)
		if *o.traceOut != "" {
			var recs []ofar.TraceRecord
			jr, recs, digest, err = ofar.RunJobsTraced(cfg, *x.Jobs, scale, o.Warmup, o.Measure)
			if err == nil {
				err = ofar.SaveTrace(*o.traceOut, recs)
			}
		} else {
			jr, err = ofar.RunJobs(cfg, *x.Jobs, scale, o.Warmup, o.Measure)
		}
		if err != nil {
			fatal("simulation failed: %v", err)
		}
		if *o.quiet {
			for _, j := range jr.Jobs {
				fmt.Printf("%s,%s,%d,%.2f,%.2f,%.4f,%d,%d\n",
					jr.Agg.Routing, j.Job, j.Nodes, j.AvgLatency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
		} else {
			fmt.Printf("workload      : %s (scale %.3f)\n", jr.Workload, jr.Scale)
			fmt.Printf("routing       : %s\n", jr.Agg.Routing)
			fmt.Printf("aggregate     : avg %.1f cycles, p99 %.1f, throughput %.4f\n",
				jr.Agg.AvgLatency, jr.Agg.P99Latency, jr.Agg.Throughput)
			fmt.Printf("%-12s %6s %10s %10s %10s %12s %8s\n", "job", "nodes", "avg", "p99", "thru", "delivered", "dropped")
			for _, j := range jr.Jobs {
				fmt.Printf("%-12s %6d %10.1f %10.1f %10.4f %12d %8d\n",
					j.Job, j.Nodes, j.AvgLatency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
		}
		if *o.traceOut != "" {
			fmt.Printf("grant digest  : %016x\n", digest)
			fmt.Printf("trace written : %s\n", *o.traceOut)
		}
		return
	}

	var res ofar.SteadyResult
	var traceDigest uint64
	if *o.traceOut != "" {
		if o.Checkpoint != "" || o.Restore != "" {
			fatal("-trace-out does not compose with -checkpoint/-restore yet")
		}
		var recs []ofar.TraceRecord
		res, recs, traceDigest, err = ofar.RunSteadyTraced(cfg, ps, *o.load, o.Warmup, o.Measure)
		if err != nil {
			fatal("simulation failed: %v", err)
		}
		if err := ofar.SaveTrace(*o.traceOut, recs); err != nil {
			fatal("writing trace %s: %v", *o.traceOut, err)
		}
	} else if o.Checkpoint == "" && o.Restore == "" {
		res, err = ofar.RunSteady(cfg, ps, *o.load, o.Warmup, o.Measure)
		if err != nil {
			fatal("simulation failed: %v", err)
		}
	} else {
		// Checkpoint/restore path: hold the warm state explicitly. A
		// measurement off it is bit-identical to RunSteady above.
		var w *ofar.WarmState
		if o.Restore != "" {
			f, err := os.Open(o.Restore)
			if err != nil {
				fatal("%v", err)
			}
			w, err = ofar.WarmFromSnapshot(cfg, ps, *o.load, f)
			f.Close()
			if err != nil {
				fatal("restoring %s: %v", o.Restore, err)
			}
		} else {
			w, err = ofar.Warm(cfg, ps, *o.load, o.Warmup)
			if err != nil {
				fatal("simulation failed: %v", err)
			}
		}
		if o.Checkpoint != "" {
			if err := w.SaveSnapshot(o.Checkpoint); err != nil {
				w.Close()
				fatal("writing checkpoint %s: %v", o.Checkpoint, err)
			}
		}
		res, err = w.MeasureClose(o.Measure, nil)
		if err != nil {
			fatal("simulation failed: %v", err)
		}
	}
	if *o.quiet {
		printRow(res)
		if *o.traceOut != "" {
			fmt.Printf("grant digest  : %016x\n", traceDigest)
		}
		return
	}
	fmt.Println(networkLine(cfg))
	fmt.Printf("routing       : %s\n", res.Routing)
	fmt.Printf("traffic       : %s at %.3f phits/(node*cycle)\n", res.Pattern, res.Load)
	fmt.Printf("avg latency   : %.1f cycles (network %.1f, max %d)\n",
		res.AvgLatency, res.AvgNetLatency, res.MaxLatency)
	fmt.Printf("throughput    : %.4f phits/(node*cycle)\n", res.Throughput)
	fmt.Printf("avg hops      : %.2f\n", res.AvgHops)
	fmt.Printf("delivered     : %d packets in the measurement window\n", res.Delivered)
	fmt.Printf("misroutes     : %d global, %d local\n", res.GlobalMisroutes, res.LocalMisroutes)
	fmt.Printf("escape ring   : %d entries (%.3f%% of delivered), %d exits\n",
		res.RingEnters, 100*res.EscapeFraction, res.RingExits)
	if len(cfg.Faults) > 0 {
		fmt.Printf("faults        : %d scheduled, %d packets dropped, %d fault reroutes, %d flows affected\n",
			len(cfg.Faults), res.Dropped, res.FaultReroutes, res.AffectedFlows)
	}
	if *o.traceOut != "" {
		fmt.Printf("grant digest  : %016x\n", traceDigest)
		fmt.Printf("trace written : %s\n", *o.traceOut)
	}
}

// printRow prints a steady-state result as the -q CSV row.
func printRow(res ofar.SteadyResult) {
	fmt.Printf("%s,%s,%.3f,%.2f,%.4f,%d,%d,%d,%d\n",
		res.Routing, res.Pattern, res.Load, res.AvgLatency, res.Throughput,
		res.GlobalMisroutes, res.LocalMisroutes, res.RingEnters, res.Delivered)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ofarsim: "+format+"\n", args...)
	os.Exit(1)
}
