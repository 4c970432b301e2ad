package network

import (
	"testing"

	"ofar/internal/traffic"
)

// TestH6ShardedSmoke is the CI gate for the full-scale regime: 200 cycles of
// the paper's h=6 system (876 routers, 5256 nodes), inline versus pooled
// (4 workers, cutover forced to 1 so every phase genuinely dispatches to the
// pool on any host), compared digest-for-digest after every cycle. It runs
// even under -short — this is the check the CI smoke step builds on — and
// is deliberately per-cycle: an ordering bug in a barrier merge would be
// caught at the first divergent cycle, not smeared into an end-of-run
// aggregate.
func TestH6ShardedSmoke(t *testing.T) {
	const cycles = 200
	mk := func(shard bool) *Network {
		cfg := DefaultConfig(6)
		if shard {
			cfg.Workers = 4
			cfg.ParallelCutover = 1
		}
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.5, cfg.PacketSize))
		n.EnableGrantDigest()
		return n
	}
	ref := mk(false)
	shard := mk(true)
	stepCompare(t, ref, map[string]*Network{"shard4": shard}, cycles)
	if ref.Stats.Delivered == 0 {
		t.Fatal("nothing delivered in the smoke window")
	}
	if err := shard.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
