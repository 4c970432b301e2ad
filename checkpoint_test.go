package ofar

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func warmTestConfig() Config {
	cfg := DefaultConfig(2)
	cfg.Seed = 11
	return cfg
}

// TestWarmMeasureMatchesRunSteady pins the core equivalence at the API
// surface: warming once and measuring — on a fork (Measure, repeatable) or in
// place through the sweep-point path (RunSweepPoint) — reports the exact
// SteadyResult of the classic uninterrupted run, every field included
// (histogram quantiles, fault counters). The sweep point is checked cold,
// while writing its warm snapshot and when restoring it, at one and two
// workers; with a PhaseSink it must still match, and the sink must see one
// breakdown covering exactly the measured cycles (timing is observation only).
func TestWarmMeasureMatchesRunSteady(t *testing.T) {
	const warmup, measure = 300, 400
	for _, workers := range []int{1, 2} {
		cfg := warmTestConfig()
		cfg.Workers = workers
		classic, err := RunSteady(cfg, Uniform(), 0.6, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("w%d/fork", workers), func(t *testing.T) {
			w, err := Warm(cfg, Uniform(), 0.6, warmup)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			// The parent is reusable: every measurement off it is identical.
			for i := 0; i < 2; i++ {
				forked, err := w.Measure(measure)
				if err != nil {
					t.Fatal(err)
				}
				if forked != classic {
					t.Fatalf("measurement %d off the warm state diverged from RunSteady:\n fork    %+v\n classic %+v", i, forked, classic)
				}
			}
		})

		dir := t.TempDir()
		for _, tc := range []struct {
			name     string
			opt      SweepOptions
			restored bool
			phases   bool
		}{
			{name: "cold"},
			{name: "cold_phases", phases: true},
			{name: "checkpoint_phases", opt: SweepOptions{CheckpointDir: dir}, phases: true},
			{name: "restore_phases", opt: SweepOptions{RestoreDir: dir}, restored: true, phases: true},
		} {
			t.Run(fmt.Sprintf("w%d/%s", workers, tc.name), func(t *testing.T) {
				var sunk []PhaseNanos
				if tc.phases {
					tc.opt.PhaseSink = func(ph PhaseNanos) { sunk = append(sunk, ph) }
				}
				got, restored, err := RunSweepPoint(cfg, Uniform(), 0.6, warmup, measure, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if restored != tc.restored {
					t.Fatalf("restored = %v, want %v", restored, tc.restored)
				}
				if got != classic {
					t.Fatalf("sweep point diverged from RunSteady:\n point   %+v\n classic %+v", got, classic)
				}
				if !tc.phases {
					return
				}
				if len(sunk) != 1 {
					t.Fatalf("phase sink called %d times, want 1", len(sunk))
				}
				ph := sunk[0]
				if ph.Cycles != measure {
					t.Fatalf("phase breakdown covered %d cycles, want %d", ph.Cycles, measure)
				}
				if ph.Events < 0 || ph.Generate < 0 || ph.Routers < 0 {
					t.Fatalf("negative phase times: %+v", ph)
				}
			})
		}
	}
}

// TestWarmSnapshotRoundTrip proves a warm state survives serialization: a
// measurement off a WarmFromSnapshot parent equals one off the original.
func TestWarmSnapshotRoundTrip(t *testing.T) {
	cfg := warmTestConfig()
	w, err := Warm(cfg, Adv(2), 0.4, 250)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := w.Measure(300)
	if err != nil {
		t.Fatal(err)
	}

	r, err := WarmFromSnapshot(cfg, Adv(2), 0.4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Warmup() != w.Warmup() {
		t.Fatalf("restored warm state parked at cycle %d, want %d", r.Warmup(), w.Warmup())
	}
	got, err := r.Measure(300)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("measurement off restored warm state diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestWarmCacheSweep is the sweep acceptance test: a cached sweep reports the
// same rows as the classic sweep, and a second invocation against the cache
// re-simulates zero warmup cycles. A poisoned cache entry must degrade to a
// plain warm-up, never to a wrong row.
func TestWarmCacheSweep(t *testing.T) {
	cfg := warmTestConfig()
	loads := []float64{0.1, 0.5, 0.8}
	const warmup, measure = 250, 300
	dir := t.TempDir()
	opt := SweepOptions{Parallel: 2, CheckpointDir: dir, RestoreDir: dir}

	classic, err := RunLoadSweep(cfg, Uniform(), loads, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}

	first, st1, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Warmed != len(loads) || st1.Restored != 0 {
		t.Fatalf("cold cache: warmed %d / restored %d, want %d / 0", st1.Warmed, st1.Restored, len(loads))
	}
	second, st2, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Restored != len(loads) || st2.WarmupCyclesRun != 0 {
		t.Fatalf("warm cache: restored %d points, ran %d warmup cycles, want %d points and 0 cycles",
			st2.Restored, st2.WarmupCyclesRun, len(loads))
	}
	if st2.WarmupCyclesSkipped != int64(warmup*len(loads)) {
		t.Fatalf("warm cache skipped %d cycles, want %d", st2.WarmupCyclesSkipped, warmup*len(loads))
	}
	for i := range loads {
		if first[i] != classic[i] || second[i] != classic[i] {
			t.Fatalf("load %.2f: sweep rows diverged\n classic %+v\n cold    %+v\n cached  %+v",
				loads[i], classic[i], first[i], second[i])
		}
	}

	// Poison one entry: the sweep must fall back to warming and still
	// produce the identical row.
	name, err := warmSnapshotName(cfg, Uniform(), loads[0], warmup)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	third, st3, err := RunLoadSweepOpt(cfg, Uniform(), loads, warmup, measure, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Warmed != 1 || st3.Restored != len(loads)-1 {
		t.Fatalf("poisoned cache: warmed %d / restored %d, want 1 / %d", st3.Warmed, st3.Restored, len(loads)-1)
	}
	for i := range loads {
		if third[i] != classic[i] {
			t.Fatalf("load %.2f after cache poisoning: %+v != %+v", loads[i], third[i], classic[i])
		}
	}
}

// TestSimulatorSnapshotForkRestore exercises the public Simulator wrappers:
// fork and snapshot/restore both reproduce the step-level trajectory.
func TestSimulatorSnapshotForkRestore(t *testing.T) {
	cfg := warmTestConfig()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.SetTraffic(Uniform(), 0.5)
	sim.Run(200)

	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fork, err := sim.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()

	restored, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.SetTraffic(Uniform(), 0.5)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	sim.Run(200)
	fork.Run(200)
	restored.Run(200)
	if a, b := sim.Stats().Delivered, fork.Stats().Delivered; a != b {
		t.Fatalf("fork delivered %d packets, original %d", b, a)
	}
	if a, b := sim.Stats().Delivered, restored.Stats().Delivered; a != b {
		t.Fatalf("restored delivered %d packets, original %d", b, a)
	}
	var s1, s2 bytes.Buffer
	if err := sim.Snapshot(&s1); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("restored simulator's trajectory diverged from the original")
	}
}
