package ofar

import (
	"math"
	"testing"
)

// Go-native fuzz targets. In regular `go test` runs they execute the seed
// corpus; `go test -fuzz FuzzParsePattern` explores further.

func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{"UN", "ADV+3", "MIX1", "BITCOMP", "PERM", "adv+", "ADV+99999", "", "☃"} {
		f.Add(seed, 3)
	}
	f.Fuzz(func(t *testing.T, s string, h int) {
		if h < 1 || h > 8 {
			h = 3
		}
		ps, err := ParsePattern(s, h)
		if err != nil {
			return
		}
		// Every accepted spec must build against a real topology.
		sim, err := NewSimulator(DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		p := ps.build(sim.Topology())
		if p == nil || p.Name() == "" {
			t.Fatalf("accepted pattern %q built %v", s, p)
		}
	})
}

// FuzzParallelConservation drives the group-sharded worker pool on
// the tiniest dragonfly (h=1: 6 routers, 6 nodes) with fuzzed seed, offered
// load, traffic pattern and worker count, and asserts the one invariant
// every run must keep regardless of inputs: no packet is created or
// destroyed outside the generator/sink (and nothing panics or deadlocks the
// cycle loop).
func FuzzParallelConservation(f *testing.F) {
	f.Add(uint64(1), 0.3, "UN", uint8(4))
	f.Add(uint64(42), 0.95, "ADV+1", uint8(2))
	f.Add(uint64(7), 0.1, "MIX1", uint8(9)) // > group count: clamped
	f.Add(uint64(999), 1.0, "BITCOMP", uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, load float64, pattern string, workers uint8) {
		if math.IsNaN(load) || load < 0 || load > 1 {
			return
		}
		ps, err := ParsePattern(pattern, 1)
		if err != nil {
			return
		}
		cfg := DefaultConfig(1)
		cfg.Seed = seed
		cfg.Workers = 2 + int(workers%8) // always the parallel engine
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("h=1 config failed to build: %v", err)
		}
		defer sim.Close()
		sim.SetTraffic(ps, load)
		sim.Run(200)
		if err := sim.Network().CheckConservation(); err != nil {
			t.Fatalf("seed=%d load=%v pattern=%q workers=%d: %v",
				seed, load, pattern, cfg.Workers, err)
		}
	})
}

// FuzzFaultSchedule fuzzes the inline fault-spec grammar and, for every
// schedule the parser and validator accept on the h=2 network, runs the
// faulted simulation and asserts packet conservation with the explicit
// Dropped term — the one invariant teardown must never break, whatever the
// schedule kills and in whatever order.
func FuzzFaultSchedule(f *testing.F) {
	f.Add("link@100:0:2", uint64(1))
	f.Add("router@50:3", uint64(2))
	f.Add("link@10:0:5,link@10:5:2,router@200:7,router@201:8", uint64(3))
	f.Add("link@0:0:2,router@0:0", uint64(4)) // cycle-0 faults
	f.Add("melt@1:2", uint64(5))
	f.Add("link@-5:0:2", uint64(6))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		fs, err := ParseFaults(spec)
		if err != nil || len(fs) > 16 {
			return
		}
		for _, fault := range fs {
			if fault.Cycle > 400 {
				return // past the run horizon: proves nothing
			}
		}
		cfg := DefaultConfig(2)
		cfg.Seed = seed
		cfg.Faults = fs
		if err := cfg.Validate(); err != nil {
			return // out-of-range router/port: a clean rejection
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("validated schedule failed to build: %v (%q)", err, spec)
		}
		defer sim.Close()
		ps, _ := ParsePattern("UN", cfg.H)
		sim.SetTraffic(ps, 0.3)
		sim.Run(500)
		if err := sim.Network().CheckConservation(); err != nil {
			t.Fatalf("spec=%q seed=%d: %v", spec, seed, err)
		}
	})
}

// FuzzRouteCache is the fuzz companion of the route-memoization oracle: for
// every accepted load × fault schedule, an h=2 OFAR run with the route cache
// enabled must emit the exact grant digest of the identical run with
// DisableRouteCache, and both must conserve packets. The fault dimension
// matters: link and router kills under fuzzed timing exercise the epoch-bump
// teardown paths (FailOutput, ring splicing, credit refunds on dead ports)
// that a pure traffic fuzz never reaches.
func FuzzRouteCache(f *testing.F) {
	f.Add(uint64(1), 0.3, "")
	f.Add(uint64(9), 0.9, "link@100:0:2")
	f.Add(uint64(5), 0.6, "link@10:0:5,router@50:3")
	f.Add(uint64(12), 1.0, "link@0:0:2,router@0:0")
	f.Add(uint64(77), 0.5, "link@10:0:5,link@10:5:2,router@200:7,router@201:8")
	f.Fuzz(func(t *testing.T, seed uint64, load float64, spec string) {
		if math.IsNaN(load) || load < 0 || load > 1 {
			return
		}
		fs, err := ParseFaults(spec)
		if err != nil || len(fs) > 16 {
			return
		}
		for _, fault := range fs {
			if fault.Cycle > 400 {
				return // past the run horizon: proves nothing
			}
		}
		cfg := DefaultConfig(2)
		cfg.Seed = seed
		cfg.Faults = fs
		if err := cfg.Validate(); err != nil {
			return // out-of-range router/port: a clean rejection
		}
		run := func(noCache bool) (uint64, int64) {
			c := cfg
			c.DisableRouteCache = noCache
			sim, err := NewSimulator(c)
			if err != nil {
				t.Fatalf("validated config failed to build: %v (%q)", err, spec)
			}
			defer sim.Close()
			sim.Network().EnableGrantDigest()
			ps, _ := ParsePattern("UN", c.H)
			sim.SetTraffic(ps, load)
			sim.Run(500)
			if err := sim.Network().CheckConservation(); err != nil {
				t.Fatalf("noCache=%v seed=%d load=%v spec=%q: %v", noCache, seed, load, spec, err)
			}
			d, n := sim.Network().GrantDigest()
			return d, n
		}
		onD, onN := run(false)
		offD, offN := run(true)
		if onD != offD || onN != offN {
			t.Fatalf("seed=%d load=%v spec=%q: cache-on digest %016x (%d events) != cache-off %016x (%d events)",
				seed, load, spec, onD, onN, offD, offN)
		}
	})
}

func FuzzConfigFromJSON(f *testing.F) {
	ok, _ := ConfigToJSON(DefaultConfig(2))
	f.Add(ok)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"P":-1}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ConfigFromJSON(data)
		if err != nil {
			return
		}
		// Keep the build step bounded: the fuzzer may synthesize huge but
		// valid topologies; building them proves nothing new.
		if cfg.P > 4 || cfg.A > 8 || cfg.H > 4 || cfg.NumRings > 4 ||
			cfg.LocalBuf > 1<<16 || cfg.GlobalBuf > 1<<16 || cfg.InjBuf > 1<<16 ||
			cfg.LocalVCs > 8 || cfg.GlobalVCs > 8 || cfg.InjVCs > 8 ||
			cfg.LocalLatency > 1<<12 || cfg.GlobalLatency > 1<<12 {
			return
		}
		// Anything accepted must be buildable (ring construction may still
		// reject degenerate shapes — that is a clean error, not a bug).
		if _, err := NewSimulator(cfg); err != nil {
			if cfg.Ring != RingNone {
				return
			}
			t.Fatalf("validated config failed to build: %v (%+v)", err, cfg)
		}
	})
}
