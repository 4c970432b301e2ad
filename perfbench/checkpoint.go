package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ofar"
)

const mib = 1 << 20

// checkpointProbe warms one network and times the checkpoint layer on it:
// Fork, Snapshot (encode) and Restore into a freshly built network of the
// same configuration. The restored network must re-encode to the same image.
func checkpointProbe(v map[string]float64, cfg ofar.Config, ps ofar.PatternSpec, load float64, warmup int) error {
	sim, err := ofar.NewSimulator(cfg)
	if err != nil {
		return err
	}
	defer sim.Close()
	sim.SetTraffic(ps, load)
	sim.Stats().EnableHistogram()
	sim.Run(warmup)

	var forkMs, forkMB []float64
	for i := 0; i < setupReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		f, err := sim.Fork()
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("fork: %w", err)
		}
		runtime.ReadMemStats(&m1)
		f.Close()
		forkMs = append(forkMs, ms(d))
		forkMB = append(forkMB, float64(m1.TotalAlloc-m0.TotalAlloc)/mib)
	}

	var image bytes.Buffer
	var encodeMs []float64
	for i := 0; i < setupReps; i++ {
		image.Reset()
		t := time.Now()
		if err := sim.Snapshot(&image); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		encodeMs = append(encodeMs, ms(time.Since(t)))
	}

	dst, err := ofar.NewSimulator(cfg)
	if err != nil {
		return err
	}
	defer dst.Close()
	dst.SetTraffic(ps, load)
	var restoreMs []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := dst.Restore(bytes.NewReader(image.Bytes())); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restoreMs = append(restoreMs, ms(time.Since(t)))
	}
	var again bytes.Buffer
	if err := dst.Snapshot(&again); err != nil {
		return fmt.Errorf("snapshot of the restored network: %w", err)
	}
	if !bytes.Equal(again.Bytes(), image.Bytes()) {
		return fmt.Errorf("the restored network does not re-encode to the image it was restored from")
	}

	v["checkpoint.fork_ms"] = median(forkMs)
	v["checkpoint.fork_alloc_mb"] = median(forkMB)
	v["checkpoint.encode_ms"] = median(encodeMs)
	v["checkpoint.restore_ms"] = median(restoreMs)
	v["checkpoint.image_mb"] = float64(image.Len()) / mib
	return nil
}
