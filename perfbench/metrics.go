package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure. Every workload prints every metric of its
// mode: the end-to-end set with tracing off, the per-layer set with tracing
// on. A per-layer metric a workload does not exercise reads 0.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd is what a user of the simulator sees. Each workload has one
// "operation": a Step for the single-run workloads, an HTTP request for
// sweepd-mixed. Simulation throughput is counted per second of the process's
// CPU time, which excludes the time the hypervisor gives the host's CPUs to
// other guests, and expressed at the host reference's nominal speed
// (README.md, "Why CPU time" and "Host reference").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"norm_cycles_per_cpu_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"accepted_load", "phit/node/cycle", "higher", 0.05},
	{"latency_p99_cycles", "cycles", "lower", 0.15},
}

// perLayer attributes the end-to-end figures to this repository's modules;
// the prediction table in README.md says which end-to-end metric each one
// should move, on which workload.
var perLayer = []metric{
	{name: "trace.overhead", unit: "ratio", better: "higher"},
	{name: "wall.cycles_per_s", unit: "1/s", better: "higher"},
	{name: "wall.op_p50_ms", unit: "ms", better: "lower"},
	{name: "wall.op_p90_ms", unit: "ms", better: "lower"},
	{name: "topology.build_ms", unit: "ms", better: "lower"},
	{name: "network.new_ms", unit: "ms", better: "lower"},
	{name: "network.events_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "network.generate_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "network.routers_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "network.other_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "network.ns_per_delivered_packet", unit: "ns", better: "lower"},
	{name: "network.routers_speedup_w2", unit: "ratio", better: "higher"},
	{name: "core.misroutes_per_packet", unit: "1/packet", better: "lower"},
	{name: "router.escape_fraction", unit: "ratio", better: "lower"},
	{name: "traffic.source_blocked_ratio", unit: "ratio", better: "lower"},
	{name: "stats.avg_hops", unit: "hops", better: "lower"},
	{name: "mem.allocs_per_cycle", unit: "count", better: "lower"},
	{name: "mem.alloc_bytes_per_cycle", unit: "B", better: "lower"},
	{name: "mem.gc_count", unit: "count", better: "lower"},
	{name: "checkpoint.fork_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.fork_alloc_mb", unit: "MB", better: "lower"},
	{name: "checkpoint.encode_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.restore_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.image_mb", unit: "MB", better: "lower"},
	{name: "service.hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.coalesced_ratio", unit: "ratio", better: "higher"},
	{name: "service.warm_restore_ratio", unit: "ratio", better: "higher"},
	{name: "service.shed_ratio", unit: "ratio", better: "lower"},
	{name: "service.point_sim_ms", unit: "ms", better: "lower"},
	{name: "service.hit_overhead_ms", unit: "ms", better: "lower"},
	{name: "service.hit_p50_ms", unit: "ms", better: "lower"},
	{name: "service.hit_p99_ms", unit: "ms", better: "lower"},
	{name: "service.miss_p50_ms", unit: "ms", better: "lower"},
	{name: "service.miss_p90_ms", unit: "ms", better: "lower"},
	{name: "service.requests_per_s", unit: "1/s", better: "higher"},
}

// result is what one run reports: the metric values of its mode, the
// operation counts, the failed correctness checks and the provenance block
// (host shape and physics digests) that lets two results be compared.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	digests   map[string]string
	steal     stealMeter
	// cpuRate is an untraced run's simulated cycles per second of process
	// CPU time, as measured; normalize turns it into norm_cycles_per_cpu_s.
	cpuRate float64
	hostRef []float64          // the host reference's CPU time per step, ns, per sample
	raw     map[string]float64 // the normalized figures as measured
}

func newResult() *result {
	return &result{values: map[string]float64{}, digests: map[string]string{}, steal: startSteal()}
}

// fail records a failed correctness check; it also counts as a failed
// operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failAll records each of problems as a failed check.
func (r *result) failAll(problems []string) {
	for _, p := range problems {
		r.fail("%s", p)
	}
}

// check records a failed check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

type hostShape struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
}

func currentHost() hostShape {
	return hostShape{runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

// provenance is the line printed before the result. compare reads it to
// refuse results taken on different host shapes.
type provenance struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Host     hostShape         `json:"host"`
	Digests  map[string]string `json:"digests"`
	// StealPct is the share of the host's CPU time the hypervisor gave to
	// other guests during the run (Linux /proc/stat; -1 when unavailable).
	StealPct float64 `json:"steal_pct"`
	// HostRefNs is the host reference's CPU time per step at each of the
	// run's samples, and Raw the normalized figures as measured:
	// cycles_per_cpu_s for norm_cycles_per_cpu_s, and setup_s.
	HostRefNs []float64          `json:"host_ref_ns,omitempty"`
	Raw       map[string]float64 `json:"raw,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the provenance line and, as the last line, the result. Every
// metric of the mode must have been set; a missing or non-finite one is a
// bug in the workload and is reported as an error instead of a result.
func (r *result) write(w io.Writer, workload string, seed uint64, traced bool) error {
	set := endToEnd
	if traced {
		set = perLayer
	}
	s := summary{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: min(r.failed, max(r.attempted, 1)), Metrics: map[string]metricValue{}}
	for _, m := range set {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		s.Metrics[m.name] = metricValue{v, m.unit}
	}
	for name := range r.values {
		if !inSet(set, name) {
			return fmt.Errorf("workload %s reports %s, which is not a metric of this mode", workload, name)
		}
	}
	prov := provenance{workload, seed, traced, currentHost(), r.digests, r.steal.pct(), r.hostRef, r.raw, r.problems}
	enc := json.NewEncoder(w)
	if err := enc.Encode(prov); err != nil {
		return err
	}
	return enc.Encode(s)
}

// normalize expresses the run's timings at the host reference's nominal
// speed. f is the mean of the reference's CPU time per step over the run's
// samples, divided by refNominalNs. norm_cycles_per_cpu_s is the simulated
// cycles per CPU second times f, and setup_s the set-up time divided by f:
// on a host that ran the reference 20% slower than nominal, a rate is
// raised and a time lowered by 20%.
func (r *result) normalize(samples []float64) {
	r.hostRef = samples
	var sum float64
	for _, s := range samples {
		sum += s
	}
	f := sum / float64(len(samples)) / refNominalNs
	r.raw = map[string]float64{"cycles_per_cpu_s": r.cpuRate, "setup_s": r.values["setup_s"]}
	r.values["norm_cycles_per_cpu_s"] = r.cpuRate * f
	r.values["setup_s"] /= f
}

func inSet(set []metric, name string) bool {
	for _, m := range set {
		if m.name == name {
			return true
		}
	}
	return false
}

// quantile is the q-quantile of xs by the exclusive method of Python's
// statistics.quantiles: position q·(n+1) in the sorted data, linearly
// interpolated and clamped to the smallest and largest value. It does not
// modify xs.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealMeter measures the host's steal time from its creation.
type stealMeter struct {
	start time.Time
	ticks int64 // -1 when /proc/stat is unreadable
}

func startSteal() stealMeter { return stealMeter{time.Now(), stealTicks()} }

// pct is the steal share of all CPU time since the meter started.
func (m stealMeter) pct() float64 {
	now := stealTicks()
	if m.ticks < 0 || now < 0 {
		return -1
	}
	const ticksPerSecond = 100 // USER_HZ
	avail := time.Since(m.start).Seconds() * float64(runtime.NumCPU()) * ticksPerSecond
	return math.Round(1000*float64(now-m.ticks)/avail) / 10
}

// stealTicks reads the aggregate steal counter of /proc/stat.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
