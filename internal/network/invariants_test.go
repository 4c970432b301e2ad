package network

import (
	"testing"

	"ofar/internal/traffic"
)

// Path-length invariants: every mechanism has a provable bound on the
// number of canonical (non-escape) hops a packet may take. Violations would
// indicate broken routing or flag lifecycles.

func maxHopsRun(t *testing.T, cfg Config, load float64) (maxTotal, maxCanonical int, ringEnters int64) {
	t.Helper()
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
	n.Stats.StartMeasurement(0)
	n.Run(6000)
	if n.Stats.MeasuredPackets() == 0 {
		t.Fatal("no deliveries to measure")
	}
	return n.Stats.MaxHops(), n.Stats.MaxCanonicalHops(), n.Stats.RingEnters
}

func TestHopBoundMIN(t *testing.T) {
	maxT, _, _ := maxHopsRun(t, testConfig(MIN), 0.3)
	if maxT > 3 {
		t.Errorf("MIN packet took %d hops, diameter is 3", maxT)
	}
}

func TestHopBoundVAL(t *testing.T) {
	maxT, _, _ := maxHopsRun(t, testConfig(VAL), 0.3)
	if maxT > 5 {
		t.Errorf("VAL packet took %d hops, bound is 5", maxT)
	}
}

func TestHopBoundPBUGAL(t *testing.T) {
	for _, rt := range []Routing{PB, UGAL} {
		maxT, _, _ := maxHopsRun(t, testConfig(rt), 0.3)
		if maxT > 5 {
			t.Errorf("%s packet took %d hops, bound is 5", rt, maxT)
		}
	}
}

func TestHopBoundPAR(t *testing.T) {
	cfg := testConfig(PAR)
	maxT, _, _ := maxHopsRun(t, cfg, 0.3)
	// PAR path: l - l - g - l - g - l = 6 hops max.
	if maxT > 6 {
		t.Errorf("PAR packet took %d hops, bound is 6", maxT)
	}
}

// TestHopBoundOFAR: between ring visits OFAR paths are bounded by 8
// canonical hops (2 global + 6 local, §IV-A); each ring exit restarts a
// minimal (≤3 hops, possibly +1 local detour per group) segment. With no
// ring usage the 8-hop bound must hold outright.
func TestHopBoundOFAR(t *testing.T) {
	cfg := testConfig(OFAR)
	maxT, maxCan, ringEnters := maxHopsRun(t, cfg, 0.25)
	if ringEnters == 0 && maxT > 8 {
		t.Errorf("OFAR packet took %d hops without ring usage, bound is 8", maxT)
	}
	bound := 8 + 4*cfg.OFAR.MaxRingExits
	if maxCan > bound {
		t.Errorf("OFAR packet took %d canonical hops, bound is %d", maxCan, bound)
	}
}

// TestHopBoundOFARUnderStress: the canonical-hop bound holds under
// adversarial overload too (where the ring is exercised).
func TestHopBoundOFARUnderStress(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 0.8, cfg.PacketSize))
	n.Stats.StartMeasurement(0)
	n.Run(8000)
	bound := 8 + 4*cfg.OFAR.MaxRingExits
	if got := n.Stats.MaxCanonicalHops(); got > bound {
		t.Errorf("OFAR canonical hops %d exceed bound %d", got, bound)
	}
}

// TestMisrouteFlagLifecycle: OFAR's misroute counters can never exceed one
// global misroute per packet — the global counter is bounded by deliveries
// plus in-flight packets.
func TestMisrouteFlagLifecycle(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.6, cfg.PacketSize))
	n.Run(6000)
	if n.Stats.GlobalMisroutes > n.Stats.Generated {
		t.Errorf("global misroutes %d exceed generated packets %d (flag lifecycle broken)",
			n.Stats.GlobalMisroutes, n.Stats.Generated)
	}
	// Local misroutes are bounded by one per group visit: ≤ 3 group visits
	// per canonical path (+ ring exits), so ≤ ~4x generated is a loose but
	// sound sanity bound.
	if n.Stats.LocalMisroutes > 4*n.Stats.Generated {
		t.Errorf("local misroutes %d exceed 4x generated %d",
			n.Stats.LocalMisroutes, n.Stats.Generated)
	}
}

// TestConservationUnderRandomFaults: whatever valid schedule is thrown at
// the network — links and routers, early and late, clustered or spread —
// Generated == Delivered + Dropped + in-network holds at every scale tried.
func TestConservationUnderRandomFaults(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := testConfig(OFAR)
		cfg.Seed = seed
		// Derive a small deterministic schedule from the seed: two link
		// faults and one router fault at staggered cycles.
		topoPorts := cfg.P + cfg.A - 1 + cfg.H
		routers := (cfg.A*cfg.H + 1) * cfg.A
		linkPorts := topoPorts - cfg.P // local+global ports per router
		x := seed * 2654435761
		pick := func(k uint64, mod int) int { return int((x >> (8 * k)) % uint64(mod)) }
		cfg.Faults = []Fault{
			{Cycle: 200 + int64(pick(0, 800)), Kind: FaultLink,
				Router: pick(1, routers), Port: cfg.P + pick(2, linkPorts)},
			{Cycle: 200 + int64(pick(3, 800)), Kind: FaultLink,
				Router: pick(4, routers), Port: cfg.P + pick(5, linkPorts)},
			{Cycle: 1000 + int64(pick(6, 500)), Kind: FaultRouter, Router: pick(7, routers)},
		}
		n, err := New(cfg)
		if err != nil {
			// A schedule may name an unwired global port; that is a clean
			// validation error, not a conservation case.
			continue
		}
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.3, cfg.PacketSize))
		n.Run(4000)
		if err := n.CheckConservation(); err != nil {
			t.Errorf("seed %d (faults %+v): %v", seed, cfg.Faults, err)
		}
		if n.Stats.Delivered == 0 {
			t.Errorf("seed %d: nothing delivered", seed)
		}
		n.Close()
	}
}

// TestRingEnterExitBalance: packets on the ring either exit or get
// delivered from it; the enter/exit difference is bounded by the packets
// currently riding.
func TestRingEnterExitBalance(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(8000)
	onRing := int64(0)
	for _, r := range n.Routers {
		for i := range r.In {
			for vc := range r.In[i].VCs {
				if r.In[i].VCs[vc].Escape {
					onRing += int64(r.In[i].VCs[vc].Len())
				}
			}
		}
	}
	diff := n.Stats.RingEnters - n.Stats.RingExits
	// Exits lag enters by the riders (plus packets delivered directly from
	// the ring, which count as exits in our accounting via ExitRing on the
	// eject request — so diff should equal riders, modulo in-flight).
	if diff < 0 {
		t.Errorf("more ring exits (%d) than enters (%d)", n.Stats.RingExits, n.Stats.RingEnters)
	}
	if diff > onRing+int64(n.InFlightPackets()) {
		t.Errorf("ring accounting: enters-exits=%d but only %d riders + %d in flight",
			diff, onRing, n.InFlightPackets())
	}
}
