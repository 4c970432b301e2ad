package ofar

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// testWorkload is the shared four-kind job mix: 30 of the h=2 network's 72
// nodes are occupied, the rest offer light background traffic.
func testWorkload(t *testing.T) Workload {
	t.Helper()
	w, err := ParseWorkload("stencil:2x2x2@0.3,a2a:8@0.4,ring:8@0.2,ps:6@0.3")
	if err != nil {
		t.Fatal(err)
	}
	w.Background = 0.1
	return w
}

func TestParseWorkload(t *testing.T) {
	w, err := ParseWorkload("stencil:2x3x4@0.25,a2a:16@0.5,ring:8@0.1:100-900,ps:5@0.4")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 4 {
		t.Fatalf("got %d jobs, want 4", len(w.Jobs))
	}
	if w.Jobs[0].Kind != "stencil" || w.Jobs[0].Tasks != 24 || w.Jobs[0].Dims != [3]int{2, 3, 4} {
		t.Errorf("stencil parsed as %+v", w.Jobs[0])
	}
	if w.Jobs[2].Start != 100 || w.Jobs[2].End != 900 {
		t.Errorf("lifetime parsed as %d-%d, want 100-900", w.Jobs[2].Start, w.Jobs[2].End)
	}
	if w.Jobs[1].Load != 0.5 || w.Jobs[3].Tasks != 5 {
		t.Errorf("a2a/ps parsed as %+v / %+v", w.Jobs[1], w.Jobs[3])
	}

	for _, bad := range []string{
		"",                         // empty
		"warp:8@0.5",               // unknown kind
		"a2a:8",                    // missing load
		"a2a:0@0.5",                // zero size
		"a2a:8@-0.1",               // negative load
		"stencil:4x4@0.3",          // 2-D grid
		"stencil:2x0x2@0.3",        // zero dimension
		"ring:8@0.2:500",           // lifetime missing end
		"ring:8@0.2:900-100",       // end before start
		"ps:6@0.3:extra:junk:junk", // too many fields
	} {
		if _, err := ParseWorkload(bad); err == nil {
			t.Errorf("ParseWorkload(%q) accepted, want error", bad)
		}
	}
}

// TestWorkloadNamePinsKnobs: the canonical name is a cache key, so every
// traffic-changing knob must show up in it.
func TestWorkloadNamePinsKnobs(t *testing.T) {
	base := testWorkload(t)
	seen := map[string]string{}
	add := func(label string, w Workload) {
		n := w.Name()
		for prev, pn := range seen {
			if pn == n {
				t.Errorf("%s and %s share the name %q", label, prev, n)
			}
		}
		seen[label] = n
	}
	add("base", base)
	random := base
	random.RandomMap = true
	add("random-map", random)
	bg := base
	bg.Background = 0.25
	add("background", bg)
	windowed := base
	windowed.Jobs = append([]JobSpec(nil), base.Jobs...)
	windowed.Jobs[1].Start, windowed.Jobs[1].End = 100, 900
	add("lifetime", windowed)
	load := base
	load.Jobs = append([]JobSpec(nil), base.Jobs...)
	load.Jobs[0].Load = 0.35
	add("job-load", load)
	if !strings.HasPrefix(base.Name(), "JOBS[") {
		t.Errorf("name %q lacks the JOBS[ prefix", base.Name())
	}
}

// TestJobSetBitIdentityMatrix: a job-set run produces the same grant digest
// under every engine variant — worker pool, group sharding, activity
// scheduler and route cache on or off.
func TestJobSetBitIdentityMatrix(t *testing.T) {
	w := testWorkload(t)
	run := func(mutate func(*Config)) (uint64, JobsResult) {
		cfg := DefaultConfig(2)
		if mutate != nil {
			mutate(&cfg)
		}
		res, _, digest, err := RunJobsTraced(cfg, w, 1.0, 400, 800)
		if err != nil {
			t.Fatal(err)
		}
		return digest, res
	}
	baseDigest, baseRes := run(nil)
	if baseDigest == 0 {
		t.Fatal("grant digest is zero — digest not enabled?")
	}
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"workers4", func(c *Config) { c.Workers = 4 }},
		{"pool4", func(c *Config) { c.Workers = 4; c.ParallelCutover = 1 }},
		{"nosched", func(c *Config) { c.DisableActivitySched = true }},
		{"nocache", func(c *Config) { c.DisableRouteCache = true }},
		{"pool4-nosched", func(c *Config) { c.Workers = 4; c.ParallelCutover = 1; c.DisableActivitySched = true }},
	}
	for _, v := range variants {
		digest, res := run(v.mutate)
		if digest != baseDigest {
			t.Errorf("%s: grant digest %016x differs from serial %016x", v.name, digest, baseDigest)
		}
		if res.Agg.Delivered != baseRes.Agg.Delivered {
			t.Errorf("%s: delivered %d differs from serial %d", v.name, res.Agg.Delivered, baseRes.Agg.Delivered)
		}
		for j := range res.Jobs {
			if res.Jobs[j] != baseRes.Jobs[j] {
				t.Errorf("%s: job %s row differs: %+v vs %+v", v.name, res.Jobs[j].Job, res.Jobs[j], baseRes.Jobs[j])
			}
		}
	}
}

// TestTraceRecordReplayDigest: replaying a recorded trace through a fresh
// network reproduces the recording run's grant digest bit-identically — for
// a synthetic pattern, for a job set, and under a fault schedule.
func TestTraceRecordReplayDigest(t *testing.T) {
	t.Run("pattern", func(t *testing.T) {
		cfg := DefaultConfig(2)
		res, recs, digest, err := RunSteadyTraced(cfg, Adv(2), 0.4, 400, 800)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatal("no trace records")
		}
		rres, rdigest, err := ReplayTrace(cfg, recs, 400, 800)
		if err != nil {
			t.Fatal(err)
		}
		if rdigest != digest {
			t.Errorf("replay digest %016x, recorded %016x", rdigest, digest)
		}
		if rres.Delivered != res.Delivered || rres.AvgLatency != res.AvgLatency {
			t.Errorf("replay stats differ: %+v vs %+v", rres, res)
		}
	})
	t.Run("jobs-faulted", func(t *testing.T) {
		cfg := DefaultConfig(2)
		fs, err := ParseFaults("link@300:3:2")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fs
		res, recs, digest, err := RunJobsTraced(cfg, testWorkload(t), 1.0, 400, 800)
		if err != nil {
			t.Fatal(err)
		}
		rres, rdigest, err := ReplayTrace(cfg, recs, 400, 800)
		if err != nil {
			t.Fatal(err)
		}
		if rdigest != digest {
			t.Errorf("replay digest %016x, recorded %016x", rdigest, digest)
		}
		if rres.Delivered != res.Agg.Delivered || rres.Dropped != res.Agg.Dropped {
			t.Errorf("replay delivered/dropped %d/%d, recorded %d/%d",
				rres.Delivered, rres.Dropped, res.Agg.Delivered, res.Agg.Dropped)
		}
	})
}

// TestReplayTraceRejectsPacketSize: a trace recorded at one packet size does
// not replay on a network of another — the network has a single packet size,
// so a silent replay would change the traffic it claims to reproduce.
func TestReplayTraceRejectsPacketSize(t *testing.T) {
	rec := DefaultConfig(2)
	rec.PacketSize = 4
	_, recs, _, err := RunSteadyTraced(rec, Uniform(), 0.3, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Size != 4 {
		t.Fatalf("recorded %d records, want size-4 records", len(recs))
	}
	if _, _, err := ReplayTrace(rec, recs, 100, 200); err != nil {
		t.Fatalf("replay at the recorded size: %v", err)
	}
	cfg := DefaultConfig(2) // 8-phit packets
	_, _, err = ReplayTrace(cfg, recs, 100, 200)
	if err == nil || !strings.Contains(err.Error(), "phits") {
		t.Fatalf("replay of 4-phit records on an 8-phit network: err = %v, want a size error", err)
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig(2)
	_, recs, _, err := RunSteadyTraced(cfg, Uniform(), 0.3, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := SaveTrace(path, recs); err != nil {
		t.Fatal(err)
	}
	got, engine, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if engine != EngineDigest() {
		t.Errorf("engine digest %016x, want %016x", engine, EngineDigest())
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, wrote %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

// TestJobStatsConservation: per-job counters partition the aggregates
// exactly — generated = delivered + dropped + in flight per job and summed,
// under faults and across the engine variants.
func TestJobStatsConservation(t *testing.T) {
	w := testWorkload(t)
	for _, v := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"serial", nil},
		{"workers4", func(c *Config) { c.Workers = 4 }},
		// Every non-empty phase through the group-sharded pool.
		{"shard4", func(c *Config) { c.Workers = 4; c.ParallelCutover = 1 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			fs, err := ParseFaults("link@400:3:2,router@700:9")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = fs
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			gen, err := w.generator(sim.Topology(), cfg, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			sim.Network().SetGenerator(gen)
			sim.Run(1500)
			st := sim.Stats()
			if st.Jobs() != len(w.Jobs)+1 { // +1 background slot
				t.Fatalf("got %d job slots, want %d", st.Jobs(), len(w.Jobs)+1)
			}
			var gens, dels, drops int64
			for j := 0; j < st.Jobs(); j++ {
				g, d, dr := st.JobCounts(j)
				if d+dr > g {
					t.Errorf("job %s: delivered %d + dropped %d exceeds generated %d", st.JobName(j), d, dr, g)
				}
				gens, dels, drops = gens+g, dels+d, drops+dr
			}
			if gens != st.Generated || dels != st.Delivered || drops != st.Dropped {
				t.Errorf("per-job sums %d/%d/%d != aggregate %d/%d/%d",
					gens, dels, drops, st.Generated, st.Delivered, st.Dropped)
			}
			if st.Dropped == 0 {
				t.Error("fault schedule dropped nothing — faults not exercised")
			}
			if err := sim.Network().CheckConservation(); err != nil {
				t.Errorf("conservation: %v", err)
			}
		})
	}
}

// TestJobSetSnapshotRoundTrip: a mid-run snapshot of a job-set simulation
// restores bit-identically — per-job emission progress, lifetime windows and
// per-job statistics included.
func TestJobSetSnapshotRoundTrip(t *testing.T) {
	w, err := ParseWorkload("stencil:2x2x2@0.3,a2a:8@0.4,ring:8@0.2:200-600,ps:6@0.3")
	if err != nil {
		t.Fatal(err)
	}
	w.Background = 0.1
	cfg := DefaultConfig(2)
	mk := func() *Simulator {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := w.generator(sim.Topology(), cfg, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		sim.Network().SetGenerator(gen)
		return sim
	}
	sim := mk()
	defer sim.Close()
	sim.Run(400) // inside the ring job's lifetime window

	var snap bytes.Buffer
	if err := sim.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	sim.Run(400)
	restored.Run(400)
	if a, b := sim.Stats().Delivered, restored.Stats().Delivered; a != b {
		t.Fatalf("restored delivered %d, original %d", b, a)
	}
	for j := 0; j < sim.Stats().Jobs(); j++ {
		g1, d1, r1 := sim.Stats().JobCounts(j)
		g2, d2, r2 := restored.Stats().JobCounts(j)
		if g1 != g2 || d1 != d2 || r1 != r2 {
			t.Errorf("job %s diverged: %d/%d/%d vs %d/%d/%d",
				sim.Stats().JobName(j), g1, d1, r1, g2, d2, r2)
		}
	}
	var s1, s2 bytes.Buffer
	if err := sim.Snapshot(&s1); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Error("post-run snapshots differ — restore was not bit-identical")
	}
}

func TestRunInterferenceSmoke(t *testing.T) {
	w, err := ParseWorkload("a2a:12@0.5,ring:12@0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	res, err := RunInterference(cfg, w, 1.0, 300, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(w.Jobs) {
		t.Fatalf("got %d interference points, want %d", len(res.Points), len(w.Jobs))
	}
	for i, p := range res.Points {
		if p.Job != res.Shared.Jobs[i].Job {
			t.Errorf("point %d labeled %q, shared row is %q", i, p.Job, res.Shared.Jobs[i].Job)
		}
		if p.SlowdownP99 <= 0 {
			t.Errorf("job %s: non-positive p99 slowdown %v (alone p99 %v)", p.Job, p.SlowdownP99, p.AloneP99)
		}
	}
}
