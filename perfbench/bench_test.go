package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as a run's child processes, as the
// benchmark's binary does.
func TestMain(m *testing.M) {
	if code, ok := subcommand(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestHostRef starts the reference process, times two bursts and checks that
// the process ends cleanly.
func TestHostRef(t *testing.T) {
	h, err := startHostRef()
	if err != nil {
		t.Fatal(err)
	}
	h.sample()
	h.sample()
	if err := h.close(); err != nil {
		t.Fatal(err)
	}
	if len(h.samples) != 2 || h.samples[0] <= 0 || h.samples[1] <= 0 {
		t.Errorf("samples %v, want two positive CPU times per step", h.samples)
	}
}

// smoke is every workload at h=2 with short windows: the same code paths as
// the full-scale workloads, in seconds.
var smoke = map[string]workload{
	"h6-adv-sat":   simWorkload{h: 2, pattern: "ADV+2", load: 0.5, workers: 2, warmup: 300, window: 200},
	"sweepd-mixed": sweepdWorkload{h: 2, clients: 2, warmup: 300, measure: 300},
	"h8-un-sat":    simWorkload{h: 2, pattern: "UN", load: 0.9, workers: 2, warmup: 300, window: 200},
}

// TestSmoke runs every workload untraced and traced and checks the printed
// result: correct, the provenance line first, and exactly the mode's metrics,
// each with a well-formed name and a unit.
func TestSmoke(t *testing.T) {
	if len(smoke) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, the benchmark has %d", len(smoke), len(workloads))
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			w := smoke[name]
			res, err := w.run(7, 0.5, traced, nil)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !traced {
				res.normalize([]float64{refNominalNs})
			}
			var out bytes.Buffer
			if err := res.write(&out, name, 7, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			prov, sum := parseOutput(t, out.Bytes())
			if prov.Workload != name || prov.Host.GOMAXPROCS < 1 || prov.Digests["engine"] == "" {
				t.Errorf("%s traced=%v: provenance %+v", name, traced, prov)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", name, traced, sum.Correct, sum.Attempted, sum.Failed, prov.Problems)
			}
			set := endToEnd
			if traced {
				set = perLayer
			}
			if len(sum.Metrics) != len(set) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", name, traced, len(sum.Metrics), len(set))
			}
			for _, m := range set {
				v, ok := sum.Metrics[m.name]
				if !ok || v.Unit != m.unit || v.Unit == "" {
					t.Errorf("%s traced=%v: metric %s printed as %+v", name, traced, m.name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}

func parseOutput(t *testing.T, out []byte) (provenance, summary) {
	t.Helper()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		t.Fatalf("want a provenance line and a result line, got %q", out)
	}
	var prov provenance
	var sum summary
	if err := json.Unmarshal(lines[len(lines)-2], &prov); err != nil {
		t.Fatalf("provenance line: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return prov, sum
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric's name, unit and direction, and that no
// name is used twice.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if m.unit == "" || len(m.unit) > 16 || (m.better != "lower" && m.better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.name, m.unit, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json declares
// exactly the workloads and metrics this program measures.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i := range min(len(spec.EndToEnd), len(endToEnd)) {
		s, m := spec.EndToEnd[i], endToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better || s.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, s, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i := range min(len(spec.PerLayer), len(perLayer)) {
		s, m := spec.PerLayer[i], perLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, s, m)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSequenceDependsOnSeedOnly checks that the sweep service's request
// sequence is a function of the seed.
func TestSequenceDependsOnSeedOnly(t *testing.T) {
	w := smoke["sweepd-mixed"].(sweepdWorkload)
	a, err := w.requests(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.requests(3)
	c, _ := w.requests(4)
	same, differ := true, false
	for i := range a {
		same = same && bytes.Equal(a[i].body, b[i].body)
		differ = differ || !bytes.Equal(a[i].body, c[i].body)
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v, different seeds differ: %v", same, differ)
	}
}

// TestCompareRefusesHostShapes checks that results from two host shapes are
// never compared.
func TestCompareRefusesHostShapes(t *testing.T) {
	r := run{prov: provenance{Workload: "h6-adv-sat", Host: currentHost()}, sum: summary{Metrics: map[string]metricValue{"norm_cycles_per_cpu_s": {1, "1/s"}}}}
	other := r
	other.prov.Host.NumCPU++
	if code := compareRuns([]run{r}, []run{other}); code != 2 {
		t.Errorf("compare across host shapes exited %d, want 2", code)
	}
	if code := compareRuns([]run{r}, []run{r}); code != 0 {
		t.Errorf("compare of identical results exited %d, want 0", code)
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	m, spread := medianSpread(xs)
	if m != 5.5 || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("median %v spread %v", m, spread)
	}
}
