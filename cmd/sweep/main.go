// Command sweep runs a load sweep for one routing mechanism and traffic
// pattern and emits CSV, for plotting latency/throughput curves.
//
// Example:
//
//	sweep -h 3 -routing OFAR -pattern ADV+3 -from 0.05 -to 0.6 -points 12 > ofar_adv3.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"ofar"
	"ofar/internal/cli"
)

func main() {
	f := cli.Register(flag.CommandLine, true)
	var (
		from   = flag.Float64("from", 0.05, "first load point")
		to     = flag.Float64("to", 1.0, "last load point")
		points = flag.Int("points", 10, "number of load points")
		seeds  = flag.Int("seeds", 1, "replicate each point across this many seeds (mean±sd output)")
	)
	flag.Parse()

	x, err := f.Resolve(nil)
	if err != nil {
		fatal(err)
	}
	cfg, ps := x.Config, x.Pattern
	loads := make([]float64, *points)
	for i := range loads {
		if *points == 1 {
			loads[i] = *from
		} else {
			loads[i] = *from + (*to-*from)*float64(i)/float64(*points-1)
		}
	}
	// Job-level sweep: the load axis scales every job's load, and the CSV
	// carries one row per (scale, job) so per-job curves plot directly.
	if x.Jobs != nil {
		if *seeds > 1 || f.Checkpoint != "" || f.Restore != "" {
			fmt.Fprintln(os.Stderr, "sweep: -seeds/-checkpoint/-restore apply to pattern sweeps; ignoring")
		}
		fmt.Println("routing,job,nodes,scale,avg_latency,p50,p99,throughput,delivered,dropped")
		for _, scale := range loads {
			jr, err := ofar.RunJobs(cfg, *x.Jobs, scale, f.Warmup, f.Measure)
			if err != nil {
				fatal(err)
			}
			for _, j := range jr.Jobs {
				fmt.Printf("%s,%s,%d,%.4f,%.2f,%.1f,%.1f,%.5f,%d,%d\n",
					jr.Agg.Routing, j.Job, j.Nodes, scale, j.AvgLatency,
					j.P50Latency, j.P99Latency, j.Throughput, j.Delivered, j.Dropped)
			}
		}
		return
	}
	if *seeds > 1 {
		if f.Checkpoint != "" || f.Restore != "" {
			fmt.Fprintln(os.Stderr, "sweep: -checkpoint/-restore apply to single-seed sweeps; ignoring")
		}
		fmt.Println("routing,pattern,load,runs,lat_mean,lat_sd,thr_mean,thr_sd,escape_mean")
		for _, load := range loads {
			rep, err := ofar.RunReplicated(cfg, ps, load, f.Warmup, f.Measure, *seeds)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s,%s,%.4f,%d,%.2f,%.2f,%.5f,%.5f,%.5f\n",
				cfg.Routing, ps.Name(), load, rep.Runs,
				rep.AvgLatency.Mean, rep.AvgLatency.StdDev,
				rep.Throughput.Mean, rep.Throughput.StdDev,
				rep.EscapeFraction.Mean)
		}
		return
	}
	opt := ofar.SweepOptions{Parallel: 1, CheckpointDir: f.Checkpoint, RestoreDir: f.Restore}
	var total ofar.SweepStats
	fmt.Println("routing,pattern,load,avg_latency,net_latency,p50,p99,throughput,avg_hops,global_mis,local_mis,ring_enters,delivered,dropped,fault_reroutes")
	for _, load := range loads {
		// One point per call keeps the CSV streaming while every point
		// still goes through the warm-state path and the warm cache.
		rs, st, err := ofar.RunLoadSweepOpt(cfg, ps, []float64{load}, f.Warmup, f.Measure, opt)
		if err != nil {
			fatal(err)
		}
		total.Warmed += st.Warmed
		total.Restored += st.Restored
		total.WarmupCyclesRun += st.WarmupCyclesRun
		total.WarmupCyclesSkipped += st.WarmupCyclesSkipped
		r := rs[0]
		fmt.Printf("%s,%s,%.4f,%.2f,%.2f,%.1f,%.1f,%.5f,%.3f,%d,%d,%d,%d,%d,%d\n",
			r.Routing, r.Pattern, r.Load, r.AvgLatency, r.AvgNetLatency,
			r.P50Latency, r.P99Latency,
			r.Throughput, r.AvgHops, r.GlobalMisroutes, r.LocalMisroutes,
			r.RingEnters, r.Delivered, r.Dropped, r.FaultReroutes)
	}
	if f.Checkpoint != "" || f.Restore != "" {
		fmt.Fprintf(os.Stderr, "sweep: warm cache: %d point(s) restored (%d warmup cycles skipped), %d warmed (%d cycles)\n",
			total.Restored, total.WarmupCyclesSkipped, total.Warmed, total.WarmupCyclesRun)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}
