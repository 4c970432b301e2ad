package network

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ofar/internal/trace"
	"ofar/internal/traffic"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenDoc is the serialized form of a run's event stream: the first
// goldenHead grant events verbatim, plus the FNV-1a digest and event count
// covering the *entire* stream (every grant and every delivery of the first
// Cycles cycles), so a refactor that changes any event anywhere —
// not just in the head — breaks byte-equality.
type goldenDoc struct {
	Network string       `json:"network"`
	Routing string       `json:"routing"`
	Seed    uint64       `json:"seed"`
	Load    float64      `json:"load"`
	Cycles  int          `json:"cycles"`
	Faults  []Fault      `json:"faults,omitempty"`
	Events  int64        `json:"events"`
	Digest  string       `json:"digest"`
	Head    []GrantEvent `json:"head"`
}

const goldenHead = 256

// goldenSpec pins one golden scenario: the dragonfly size, the traced
// window, the offered load, an optional fault schedule and an optional
// traffic source (nil: Bernoulli uniform at load).
type goldenSpec struct {
	h      int
	cycles int
	load   float64
	faults []Fault
	gen    func(n *Network) traffic.Generator
}

// generator builds a fresh traffic source of the scenario for n.
func (s goldenSpec) generator(n *Network) traffic.Generator {
	if s.gen != nil {
		return s.gen(n)
	}
	return traffic.NewBernoulli(traffic.NewUniform(n.Topo), s.load, n.Cfg.PacketSize)
}

// goldenVariant is one execution setting of a golden scenario. Every
// variant must reproduce the golden document byte for byte.
type goldenVariant struct {
	name    string
	workers int
	cutover int // 1 forces every non-empty phase through the pool, on any host
	noSched bool
	noCache bool
	snapAt  int
}

// goldenRun executes one variant of a golden scenario and returns the
// serialized event-stream document. snapAt > 0 additionally round-trips the
// run through Snapshot/Restore at that cycle: the first snapAt cycles run in
// one network, the rest in a freshly built network restored from its
// snapshot — the document must come out identical, which pins the
// checkpoint layer to the same golden contract as the engine.
func goldenRun(t *testing.T, spec goldenSpec, v goldenVariant) []byte {
	t.Helper()
	cfg := DefaultConfig(spec.h)
	cfg.Seed = 12345
	cfg.Workers = v.workers
	cfg.ParallelCutover = v.cutover
	cfg.DisableActivitySched = v.noSched
	cfg.DisableRouteCache = v.noCache
	cfg.Faults = spec.faults
	snapAt := v.snapAt
	attach := func(n *Network) { n.SetGenerator(spec.generator(n)) }
	n := mustNet(t, cfg)
	t.Cleanup(n.Close)
	attach(n)
	n.EnableGrantLog(goldenHead)
	if snapAt > 0 && snapAt < spec.cycles {
		n.Run(snapAt)
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		m := mustNet(t, cfg)
		t.Cleanup(m.Close)
		attach(m)
		if err := m.Restore(&buf); err != nil {
			t.Fatal(err)
		}
		n = m
		n.Run(spec.cycles - snapAt)
	} else {
		n.Run(spec.cycles)
	}
	return goldenSerialize(t, n, cfg, spec)
}

// goldenReplayRun runs the inline scenario with a trace recorder attached,
// then re-injects the recorded packets through a fresh network driven by the
// TraceReplay generator. Replay determinism means the replayed event stream
// serializes to the very same golden document as the recording run.
func goldenReplayRun(t *testing.T, spec goldenSpec) []byte {
	t.Helper()
	cfg := DefaultConfig(spec.h)
	cfg.Seed = 12345
	cfg.Faults = spec.faults
	rec := &trace.Recorder{}
	n := mustNet(t, cfg)
	t.Cleanup(n.Close)
	n.SetGenerator(spec.generator(n))
	n.SetTraceRecorder(rec)
	n.Run(spec.cycles)

	m := mustNet(t, cfg)
	t.Cleanup(m.Close)
	gen, err := traffic.NewTraceReplay(rec.Records(), m.Topo.Nodes, m.Cfg.PacketSize)
	if err != nil {
		t.Fatal(err)
	}
	m.SetGenerator(gen)
	m.EnableGrantLog(goldenHead)
	m.Run(spec.cycles)
	return goldenSerialize(t, m, cfg, spec)
}

// goldenSerialize renders a finished run as its golden document.
func goldenSerialize(t *testing.T, n *Network, cfg Config, spec goldenSpec) []byte {
	t.Helper()
	digest, events := n.GrantDigest()
	doc := goldenDoc{
		Network: fmt.Sprintf("h=%d p=%d a=%d groups=%d", cfg.H, cfg.P, cfg.A, n.Topo.G),
		Routing: string(cfg.Routing),
		Seed:    cfg.Seed,
		Load:    spec.load,
		Cycles:  spec.cycles,
		Faults:  spec.faults,
		Events:  events,
		Digest:  fmt.Sprintf("%016x", digest),
		Head:    n.GrantLog(),
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// checkGolden runs the golden scenario of testdata/file (goldenScenarios)
// and compares every variant's serialized run — inline, pooled (at the auto
// cutover and forced through the pool on every phase), scheduler off, route
// cache off, and mid-run snapshot/restore round trips — against the golden
// file, rewriting the file first when -update-golden is set (only the
// inline scheduler-on variant rewrites, so a divergence between variants
// still fails).
func checkGolden(t *testing.T, file string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	spec := goldenScenarios(t)[file]
	base := goldenRun(t, spec, goldenVariant{name: "inline"})
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, base, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(base))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	variants := []goldenVariant{
		{name: "inline"},
		{name: "inline-nosched", noSched: true},
		{name: "inline-nocache", noCache: true},
		{name: "workers4", workers: 4},
		{name: "pool4", workers: 4, cutover: 1},
		{name: "pool4-nosched", workers: 4, cutover: 1, noSched: true},
		{name: "pool8-nocache", workers: 8, cutover: 1, noCache: true},
		{name: "snapshot-restore", snapAt: spec.cycles / 2},
		{name: "snapshot-restore-pool4", workers: 4, cutover: 1, snapAt: spec.cycles / 2},
	}
	for _, v := range variants {
		got := base
		if v != (goldenVariant{name: "inline"}) {
			got = goldenRun(t, spec, v)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from %s (len %d vs %d) — a behavioral change; "+
				"if intended, regenerate with -update-golden", v.name, path, len(got), len(want))
		}
	}
	if replay := goldenReplayRun(t, spec); !bytes.Equal(replay, want) {
		t.Errorf("trace-replay diverged from %s (len %d vs %d) — record/replay no longer "+
			"reproduces the event stream bit-identically", path, len(replay), len(want))
	}
}

// goldenScenarios is the golden matrix: each testdata/golden_*.json file
// with the scenario it pins. The TestGoldenTrace* gates below each check one
// entry; checks that must hold across every golden scenario (the packet
// layout test) walk the whole table.
func goldenScenarios(t *testing.T) map[string]goldenSpec {
	t.Helper()
	faults, err := GlobalLinkFaults(DefaultConfig(3), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]goldenSpec{
		"golden_h3.json":        {h: 3, cycles: 2000, load: 0.2},
		"golden_h3_low.json":    {h: 3, cycles: 2000, load: 0.05},
		"golden_h3_faults.json": {h: 3, cycles: 2000, load: 0.2, faults: faults},
		"golden_h6.json":        {h: 6, cycles: 250, load: 0.2},
		"golden_h3_burst.json": {
			h: 3, cycles: 400,
			gen: func(n *Network) traffic.Generator {
				return traffic.NewBurst(traffic.NewAdv(n.Topo, 1), 24, n.Topo.Nodes)
			},
		},
		"golden_h3_jobs.json": {
			h: 3, cycles: 400,
			faults: []Fault{{Cycle: 150, Kind: FaultRouter, Router: 20}},
			gen: func(n *Network) traffic.Generator {
				js, err := traffic.NewJobSet(n.Topo, traffic.JobSetConfig{
					Jobs: []traffic.JobSpec{
						{Kind: traffic.JobStencil, Nodes: 27, Load: 0.3, Dims: [3]int{3, 3, 3}},
						{Kind: traffic.JobAll2All, Nodes: 32, Load: 0.4},
						{Kind: traffic.JobRing, Nodes: 16, Load: 0.2, Start: 50, End: 300},
						{Kind: traffic.JobParamServer, Nodes: 12, Load: 0.3},
					},
					Mapping:    traffic.MapRandom,
					Background: 0.1,
					Seed:       7,
					PacketSize: n.Cfg.PacketSize,
				})
				if err != nil {
					panic(err)
				}
				return js
			},
		},
	}
}

// TestGoldenTraceH3 is the golden-trace regression gate: the first 2000
// cycles of grant/delivery events of a fixed-seed h=3 OFAR run, serialized
// to testdata/golden_h3.json, must match byte for byte — inline and pooled,
// with the activity scheduler or route cache disabled, and a run restored
// mid-window from a snapshot. It guards
// future refactors of the router stage, the allocator, the scheduler's skip
// logic, the RNG derivation order, the timing wheel and the checkpoint
// layer, not just the change that introduced it. Regenerate deliberately
// with `go test ./internal/network -run TestGoldenTrace -update-golden`.
func TestGoldenTraceH3(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 2000 full-size h=3 cycles per execution variant")
	}
	checkGolden(t, "golden_h3.json")
}

// TestGoldenTraceH3LowLoad pins the same contract in the regime the
// activity scheduler was built for: at 5% load the overwhelming majority of
// router-cycles are idle, so nearly every Step exercises the skip path, and
// any router skipped when it still had observable work would shift grants
// or deliveries and break byte-equality here.
func TestGoldenTraceH3LowLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 2000 full-size h=3 cycles per execution variant")
	}
	checkGolden(t, "golden_h3_low.json")
}

// TestGoldenTraceH3Faults pins the faulted event stream: the same h=3 OFAR
// run with one global link killed at cycle 500. The digest covers every
// grant, delivery and fault-drop (tag 2), so any change to the teardown
// ordering, the liveness masks or the degraded routing path breaks
// byte-equality — across all execution variants, including the snapshot round
// trip (whose restore point lands after the fault fires and must carry the
// post-teardown structure verbatim).
func TestGoldenTraceH3Faults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 2000 full-size h=3 cycles per execution variant")
	}
	checkGolden(t, "golden_h3_faults.json")
}

// TestGoldenTraceH6 pins a short window of the paper's full-size h=6 system
// (876 routers, 5256 nodes): radix-dependent code paths — port bitsets near
// their 23-port width, deeper VC fan-in, longer rings — are exercised at a
// scale the h=3 traces cannot reach. The window is short because each of the
// execution variants replays it.
func TestGoldenTraceH6(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 250 full-size h=6 cycles per execution variant")
	}
	checkGolden(t, "golden_h6.json")
}

// TestGoldenTraceBurst pins the generation path of a source that is not
// group-local: a closed-loop burst whose per-node budgets are shared
// progress counters, drawn in (group, node) order. Every node holds more
// packets than its source queue, so retraction runs throughout the window.
func TestGoldenTraceBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 400 full-size h=3 cycles per execution variant")
	}
	checkGolden(t, "golden_h3_burst.json")
}

// TestGoldenTraceJobSet pins the other source that is not group-local: a
// job set with random placement, a job lifetime window and uniform
// background, under a router fault whose dead nodes turn generation
// attempts into dead-destination drops.
func TestGoldenTraceJobSet(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace runs 400 full-size h=3 cycles per execution variant")
	}
	checkGolden(t, "golden_h3_jobs.json")
}
