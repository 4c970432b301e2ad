package network

import (
	"strings"
	"testing"

	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// testConfig returns a small h=2 network with paper-style parameters scaled
// for test speed.
func testConfig(rt Routing) Config {
	cfg := DefaultConfig(2)
	cfg.Routing = rt
	if rt == MIN || rt == VAL || rt == PB || rt == UGAL {
		cfg.Ring = RingNone
	}
	return cfg
}

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.PacketSize = 0 },
		func(c *Config) { c.LocalLatency = 0 },
		func(c *Config) { c.LocalBuf = 4 }, // smaller than a packet
		func(c *Config) { c.LocalVCs = 0 },
		func(c *Config) { c.AllocIters = 0 },
		func(c *Config) { c.PendingCap = 0 },
		func(c *Config) { c.Routing = "bogus" },
		func(c *Config) { c.Ring = RingPhysical; c.NumRings = 0 },
		func(c *Config) { c.Ring = RingPhysical; c.RingBuf = 8 }, // < 2 packets
		func(c *Config) { c.Routing = OFAR; c.Ring = RingNone },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(2)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	good := DefaultConfig(2)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// OFAR without a ring is allowed when the escape is explicitly disabled.
	cfg := DefaultConfig(2)
	cfg.Ring = RingNone
	cfg.OFAR.EscapeTimeout = -1
	if err := cfg.Validate(); err != nil {
		t.Errorf("explicitly unprotected OFAR rejected: %v", err)
	}
}

// TestAllEnginesDeliver runs every mechanism at moderate uniform load and
// checks packets arrive at the right nodes with conserved counts.
func TestAllEnginesDeliver(t *testing.T) {
	for _, rt := range []Routing{MIN, VAL, PB, UGAL, OFAR, OFARL} {
		t.Run(string(rt), func(t *testing.T) {
			n := mustNet(t, testConfig(rt))
			n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.2, n.Cfg.PacketSize))
			n.Run(4000)
			if n.Stats.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			// At 0.2 load everything injected early must be delivered.
			if float64(n.Stats.Delivered) < 0.8*float64(n.Stats.Generated) {
				t.Errorf("delivered %d of %d generated", n.Stats.Delivered, n.Stats.Generated)
			}
		})
	}
}

// TestDeliveryToCorrectNode uses a custom check: run with a pattern and
// verify by construction (ADV pattern => all deliveries must come from the
// offset group). The check is indirect — the simulator ejects a packet only
// at Dst's router/port, so a misdelivery would manifest as a stuck packet
// and a conservation failure after draining.
func TestDeliveryToCorrectNode(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBurst(traffic.NewAdv(n.Topo, 1), 5, n.Topo.Nodes))
	if !n.RunUntilDrained(200000) {
		t.Fatalf("burst not drained: %d/%d", n.Stats.Delivered, n.Stats.Generated)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Delivered != int64(5*n.Topo.Nodes) {
		t.Errorf("delivered %d, want %d", n.Stats.Delivered, 5*n.Topo.Nodes)
	}
}

// TestDeterminism: identical seeds give identical results; different seeds
// differ.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) (int64, float64) {
		cfg := testConfig(OFAR)
		cfg.Seed = seed
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.3, cfg.PacketSize))
		n.Stats.StartMeasurement(0)
		n.Run(3000)
		return n.Stats.Delivered, n.Stats.AvgLatency()
	}
	d1, l1 := run(42)
	d2, l2 := run(42)
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: %d/%f vs %d/%f", d1, l1, d2, l2)
	}
	d3, _ := run(43)
	if d1 == d3 {
		t.Log("warning: different seeds produced identical delivery counts (possible but unlikely)")
	}
}

// TestCreditConservation verifies, mid-simulation, that missing credits on
// every output equal downstream occupancy plus in-flight phits.
func TestCreditConservation(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.4, cfg.PacketSize))
	// Track in-flight phits per (router,port,vc) by draining the network
	// and checking at quiescence instead: after the generator stops and the
	// network drains, every credit must be restored.
	n.Run(2000)
	n.SetGenerator(traffic.NewBurst(traffic.NewUniform(n.Topo), 0, n.Topo.Nodes)) // stop generating
	for i := 0; i < 100000 && n.BufferedPackets()+n.InFlightPackets()+n.PendingPackets() > 0; i++ {
		n.Step()
	}
	if left := n.BufferedPackets() + n.InFlightPackets() + n.PendingPackets(); left != 0 {
		t.Fatalf("network did not drain: %d packets left", left)
	}
	// Wait for straggler credit events to land.
	n.Run(cfg.GlobalLatency + cfg.PacketSize + 2)
	for _, r := range n.Routers {
		if err := r.CheckCredits(n.Routers, func(int, int, int) int { return 0 }); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestBaselinesDeadlockFree: the VC-ordered mechanisms sustain adversarial
// overload without the escape network and keep delivering.
func TestBaselinesDeadlockFree(t *testing.T) {
	for _, rt := range []Routing{MIN, VAL, PB, UGAL} {
		t.Run(string(rt), func(t *testing.T) {
			cfg := testConfig(rt)
			n := mustNet(t, cfg)
			n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
			n.Run(3000)
			before := n.Stats.Delivered
			n.Run(2000)
			if n.Stats.Delivered == before {
				t.Fatalf("%s stopped delivering under overload (deadlock?)", rt)
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOFARSurvivesOverloadWithRing: OFAR keeps delivering under worst-case
// adversarial overload thanks to the escape subnetwork.
func TestOFARSurvivesOverload(t *testing.T) {
	for _, mode := range []RingMode{RingPhysical, RingEmbedded} {
		cfg := testConfig(OFAR)
		cfg.Ring = mode
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
		n.Run(4000)
		before := n.Stats.Delivered
		n.Run(2000)
		if n.Stats.Delivered == before {
			t.Fatalf("OFAR (%v ring) stopped delivering", mode)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEmbeddedRingTopology: embedded mode must not add ports, physical mode
// adds one port pair per ring.
func TestRingRealizationPorts(t *testing.T) {
	cfgP := testConfig(OFAR)
	cfgP.Ring = RingPhysical
	nP := mustNet(t, cfgP)
	cfgE := testConfig(OFAR)
	cfgE.Ring = RingEmbedded
	nE := mustNet(t, cfgE)
	d := nP.Topo
	if got := len(nP.Routers[0].In); got != d.RouterPorts+1 {
		t.Errorf("physical ring ports: %d want %d", got, d.RouterPorts+1)
	}
	if got := len(nE.Routers[0].In); got != d.RouterPorts {
		t.Errorf("embedded ring ports: %d want %d", got, d.RouterPorts)
	}
	// Embedded: exactly one extra escape VC along each ring edge.
	rg := nE.Rings[0]
	for _, r := range rg.Order {
		port := rg.EmbeddedPort(r)
		op := &nE.Routers[r].Out[port]
		esc := 0
		for vc := 0; vc < op.NumVCs(); vc++ {
			if op.EscapeRing(vc) == 0 {
				esc++
			}
		}
		if esc != 1 {
			t.Fatalf("router %d ring port %d has %d escape VCs", r, port, esc)
		}
	}
}

// TestMultiRingNetwork: two embedded rings work and both get used under
// pressure.
func TestMultiRingNetwork(t *testing.T) {
	cfg := testConfig(OFAR)
	cfg.Ring = RingEmbedded
	cfg.NumRings = 2
	n := mustNet(t, cfg)
	if n.Routers[0].NumRings() != 2 {
		t.Fatal("routers not configured with 2 rings")
	}
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(6000)
	if n.Stats.RingEnters == 0 {
		t.Error("escape rings never used under worst-case overload")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEscapeRingRarelyUsedAtLowLoad: §IV-C/§VII claim — under benign load
// the ring is essentially unused.
func TestEscapeRingRareAtLowLoad(t *testing.T) {
	cfg := testConfig(OFAR)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.2, cfg.PacketSize))
	n.Run(5000)
	frac := float64(n.Stats.RingEnters) / float64(n.Stats.Delivered+1)
	if frac > 0.01 {
		t.Errorf("escape ring used by %.2f%% of packets at low load", 100*frac)
	}
}

// TestPBFlagsInfluenceRouting: under ADV traffic PB must divert a large
// share of packets (its global channel flags fire).
func TestPBFlagsInfluenceRouting(t *testing.T) {
	cfg := testConfig(PB)
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, 2), 0.5, cfg.PacketSize))
	n.Run(4000)
	// Count delivered packets that took 2 global hops (valiant paths).
	// Proxy: average hops must exceed the pure-minimal expectation.
	n.Stats.StartMeasurement(n.Now())
	n.Run(2000)
	if n.Stats.AvgHops() < 2.5 {
		t.Errorf("PB avg hops %.2f suggests no misrouting under ADV", n.Stats.AvgHops())
	}
}

// TestSourceQueueBackpressure: overload fills source queues up to the cap
// and counts blocked draws without losing accounting.
func TestSourceQueueBackpressure(t *testing.T) {
	cfg := testConfig(MIN)
	cfg.PendingCap = 4
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
	n.Run(4000)
	if n.Stats.SourceBlocked == 0 {
		t.Error("no source backpressure under extreme overload")
	}
	if n.PendingPackets() > 4*n.Topo.Nodes {
		t.Error("pending queues exceeded the cap")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestUndersizedNetwork: a non-maximum group count simulates correctly.
func TestUndersizedNetwork(t *testing.T) {
	cfg := testConfig(MIN)
	cfg.Groups = 5
	n := mustNet(t, cfg)
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.2, cfg.PacketSize))
	n.Run(3000)
	if n.Stats.Delivered == 0 {
		t.Fatal("nothing delivered on undersized network")
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestReducedVCCongestion reproduces the qualitative Fig. 9 effect: with
// 2 local VCs, 1 global VC, an embedded ring and no congestion management,
// adversarial overload can collapse the canonical network (throughput well
// below the full-VC configuration).
func TestReducedVCCongestion(t *testing.T) {
	run := func(localVCs, globalVCs int) float64 {
		cfg := testConfig(OFAR)
		cfg.Ring = RingEmbedded
		cfg.LocalVCs, cfg.GlobalVCs, cfg.InjVCs = localVCs, globalVCs, localVCs
		n := mustNet(t, cfg)
		n.SetGenerator(traffic.NewBernoulli(traffic.NewAdv(n.Topo, n.Topo.H), 1.0, cfg.PacketSize))
		n.Run(3000)
		n.Stats.StartMeasurement(n.Now())
		n.Run(3000)
		return n.Stats.Throughput(n.Now())
	}
	full := run(3, 2)
	reduced := run(2, 1)
	t.Logf("full VCs: %.3f, reduced VCs: %.3f", full, reduced)
	if reduced > full {
		t.Errorf("reduced VCs outperformed full VCs: %.3f > %.3f", reduced, full)
	}
}

// TestTopologyAccessors sanity-checks the assembled wiring against the
// topology package (spot check, full check in topology tests).
func TestAssembledWiring(t *testing.T) {
	n := mustNet(t, testConfig(MIN))
	d := n.Topo
	for r := 0; r < d.Routers; r += 7 {
		for port := 0; port < d.RouterPorts; port++ {
			kind, peer, peerPort := d.Peer(r, port)
			op := &n.Routers[r].Out[port]
			switch kind {
			case topology.PortNode:
				if op.Peer != -1 {
					t.Fatalf("router %d node port %d wired to %d", r, port, op.Peer)
				}
			case topology.PortLocal, topology.PortGlobal:
				if op.Peer != peer || op.PeerPort != peerPort {
					t.Fatalf("router %d port %d wired to %d:%d, want %d:%d",
						r, port, op.Peer, op.PeerPort, peer, peerPort)
				}
			}
		}
	}
}

// TestPhysicalRingWiring: ring ports form the Hamiltonian cycle.
func TestPhysicalRingWiring(t *testing.T) {
	cfg := testConfig(OFAR)
	cfg.Ring = RingPhysical
	n := mustNet(t, cfg)
	rg := n.Rings[0]
	rp := n.Topo.RouterPorts
	for _, r := range rg.Order {
		op := &n.Routers[r].Out[rp]
		if op.Peer != rg.Next(r) {
			t.Fatalf("router %d ring out wired to %d, want %d", r, op.Peer, rg.Next(r))
		}
		in := &n.Routers[rg.Next(r)].In[rp]
		if in.UpRouter != r {
			t.Fatalf("router %d ring in upstream %d, want %d", rg.Next(r), in.UpRouter, r)
		}
	}
}

// TestValidatePacketHeaderLimits: configurations whose group, node or
// ring-exit values the compact packet header cannot represent are refused,
// each with its own error, and the largest representable values pass the
// header checks.
func TestValidatePacketHeaderLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // error substring; "" = passes the header checks
	}{
		{"groups-32768", func(c *Config) { c.P, c.A, c.H, c.Groups = 1, 4097, 8, 32768 }, "groups exceed"},
		{"groups-a·h+1", func(c *Config) { c.P, c.A, c.H, c.Groups = 1, 200, 200, 0 }, "groups exceed"},
		{"groups-32767", func(c *Config) { c.P, c.A, c.H, c.Groups = 1, 4096, 8, 32767 }, ""},
		{"nodes-2^31", func(c *Config) { c.P, c.A, c.H, c.Groups = 1<<16, 1<<11, 16, 1<<4 }, "nodes exceed"},
		{"nodes-2^31-1", func(c *Config) { c.P, c.A, c.H, c.Groups = 127, 1<<10, 17, 16513 }, ""},
		{"nodes-wrap", func(c *Config) { c.P, c.A, c.H, c.Groups = 1<<62, 1<<10, 16, 2 }, "nodes exceed"},
		{"ring-exits-255", func(c *Config) { c.OFAR.MaxRingExits = 255 }, "ring-exit budget"},
		{"ring-exits-254", func(c *Config) { c.OFAR.MaxRingExits = 254 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			tc.mut(&cfg)
			err := cfg.Validate()
			switch {
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			case tc.want == "" && err != nil && !strings.Contains(err.Error(), "router radix"):
				// The radix check comes after the header checks: these
				// shapes are far beyond 64 ports, so reaching it is passing.
				t.Errorf("representable config refused before the radix check: %v", err)
			}
		})
	}
}

func TestValidateGroupsRange(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Groups = 10 // max is a*h+1 = 9
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range group count accepted")
	}
	cfg.Groups = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative group count accepted")
	}
}
