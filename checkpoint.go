package ofar

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"ofar/internal/network"
	"ofar/internal/traffic"
)

// WarmState is a network that has finished its warm-up phase. It is either
// held as a measurement parent — every Measure call forks it and runs the
// measurement window on the fork, leaving the parent untouched ("warm once,
// fork N times") — or measured once in place by MeasureClose, which is what
// sweep points do. Because a fork is bit-identical to the original, both
// equal the classic uninterrupted RunSteady run exactly.
//
// Warm states serialize: Snapshot writes the parent's full image, and
// WarmFromSnapshot rebuilds a warm state from one without re-simulating the
// warm-up. The snapshot header pins the format version, the engine's
// golden-trace digest and the normalized configuration, so a stale file can
// never silently resume into changed physics — it just fails to restore.
type WarmState struct {
	cfg     Config
	load    float64
	pattern string
	net     *network.Network
}

// Warm builds a network, attaches an open-loop Bernoulli source for the
// pattern and load, and simulates the warm-up phase (with the latency
// histogram enabled, exactly as RunSteady does). Close the result when done.
func Warm(cfg Config, ps PatternSpec, load float64, warmup int) (*WarmState, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	pattern := ps.build(n.Topo)
	n.SetGenerator(traffic.NewBernoulli(pattern, load, cfg.PacketSize))
	n.Stats.EnableHistogram()
	n.Run(warmup)
	return &WarmState{cfg: cfg, load: load, pattern: pattern.Name(), net: n}, nil
}

// WarmFromSnapshot rebuilds a warm state from a snapshot written by
// WarmState.Snapshot, skipping the warm-up simulation. cfg, ps and load must
// match the warming run (the snapshot rejects a different configuration; the
// pattern and load re-create the identical traffic source, whose RNG
// position the snapshot carries).
func WarmFromSnapshot(cfg Config, ps PatternSpec, load float64, r io.Reader) (*WarmState, error) {
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	pattern := ps.build(n.Topo)
	n.SetGenerator(traffic.NewBernoulli(pattern, load, cfg.PacketSize))
	if err := n.Restore(r); err != nil {
		n.Close()
		return nil, err
	}
	return &WarmState{cfg: cfg, load: load, pattern: pattern.Name(), net: n}, nil
}

// Warmup returns the simulated cycle the warm state is parked at.
func (w *WarmState) Warmup() int64 { return w.net.Now() }

// Snapshot writes the warm parent's full state; WarmFromSnapshot reads it.
func (w *WarmState) Snapshot(wr io.Writer) error { return w.net.Snapshot(wr) }

// Close releases the parent network (its worker pool, when configured).
func (w *WarmState) Close() { w.net.Close() }

// Measure forks the warm state and runs one measurement window on the fork,
// returning the same SteadyResult an uninterrupted RunSteady with this
// configuration, pattern, load and warm-up would. The parent is not
// perturbed, so Measure can be called repeatedly.
func (w *WarmState) Measure(measure int) (SteadyResult, error) {
	n, err := w.net.Fork()
	if err != nil {
		return SteadyResult{}, err
	}
	defer n.Close()
	return measureSteady(n, w.pattern, w.load, measure)
}

// MeasureClose runs one measurement window on the warm state itself and
// closes it: the single-use counterpart of Measure for callers that measure
// a warm state once. Skipping the fork skips a snapshot encode, a second
// network build and a restore, and the result is identical to Measure's.
// When phases is non-nil, per-phase Step timing is enabled for the window
// and phases receives the window's breakdown (timing never affects the
// result). The warm state must not be used afterwards.
func (w *WarmState) MeasureClose(measure int, phases func(PhaseNanos)) (SteadyResult, error) {
	defer w.Close()
	if phases != nil {
		w.net.EnablePhaseTimings()
	}
	res, err := measureSteady(w.net, w.pattern, w.load, measure)
	if err == nil && phases != nil {
		phases(w.net.PhaseTimings())
	}
	return res, err
}

// EngineDigest returns the engine's physics fingerprint: the grant digest of
// one small canonical run, computed once per process (see
// network.EngineDigest). Snapshot restores refuse images written by a
// behaviorally different build, and the sweep service folds this digest into
// every result-cache key, so a code change that moves the physics can never
// serve a stale cached result.
func EngineDigest() uint64 { return network.EngineDigest() }

// CanonicalConfigJSON returns the canonical identity of a configuration: its
// JSON encoding with the wall-clock-only execution fields (Workers,
// ParallelCutover, the deprecated ShardByGroup, scheduler/cache toggles)
// normalized away.
// Two configurations that provably simulate bit-identically — differing only
// in those fields — canonicalize to the same bytes, which is what lets the
// warm-snapshot cache and the sweep service's result cache share entries
// across execution settings.
func CanonicalConfigJSON(cfg Config) ([]byte, error) { return network.SnapshotConfigJSON(cfg) }

// sweepPoint produces one sweep point: it obtains the point's warm state
// (consulting the options' warm cache) and measures on it in place. It
// reports whether the point's warmup was skipped by a cache hit.
func sweepPoint(cfg Config, ps PatternSpec, load float64, warmup, measure int, opt SweepOptions) (SteadyResult, bool, error) {
	w, restored, err := warmFor(cfg, ps, load, warmup, opt)
	if err != nil {
		return SteadyResult{}, false, err
	}
	res, err := w.MeasureClose(measure, opt.PhaseSink)
	return res, restored, err
}

// warmFor obtains the warm state for one sweep point: from the restore
// directory when a usable snapshot exists there, otherwise by simulating the
// warm-up (and checkpointing it when a checkpoint directory is set).
func warmFor(cfg Config, ps PatternSpec, load float64, warmup int, opt SweepOptions) (*WarmState, bool, error) {
	var name string
	if opt.RestoreDir != "" || opt.CheckpointDir != "" {
		var err error
		if name, err = warmSnapshotName(cfg, ps, load, warmup); err != nil {
			return nil, false, err
		}
	}
	if opt.RestoreDir != "" {
		if f, err := os.Open(filepath.Join(opt.RestoreDir, name)); err == nil {
			w, rerr := WarmFromSnapshot(cfg, ps, load, f)
			f.Close()
			if rerr == nil {
				return w, true, nil
			}
			// Stale or corrupt entry (different physics, truncated write):
			// fall through and warm from cycle 0 like a cache miss.
		}
	}
	w, err := Warm(cfg, ps, load, warmup)
	if err != nil {
		return nil, false, err
	}
	if opt.CheckpointDir != "" {
		if err := writeWarmSnapshot(filepath.Join(opt.CheckpointDir, name), w); err != nil {
			w.Close()
			return nil, false, err
		}
	}
	return w, false, nil
}

// warmSnapshotName derives the cache file name of a warm state from
// everything that determines it: the snapshot-normalized configuration (so
// worker/scheduler/cache settings share entries, as they share snapshots),
// the pattern, the load and the warm-up length.
func warmSnapshotName(cfg Config, ps PatternSpec, load float64, warmup int) (string, error) {
	cj, err := network.SnapshotConfigJSON(cfg)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(cj)
	fmt.Fprintf(h, "|%s|%016x|%d", ps.Name(), math.Float64bits(load), warmup)
	return fmt.Sprintf("warm-%016x.ofarsnap", h.Sum64()), nil
}

// writeWarmSnapshot persists a warm state atomically (temp file + rename), so
// concurrent sweep points — or concurrent sweep processes sharing a cache
// directory — never observe a half-written snapshot.
func writeWarmSnapshot(path string, w *WarmState) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".warm-*")
	if err != nil {
		return err
	}
	if err := w.Snapshot(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
