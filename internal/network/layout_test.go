package network

import (
	"sort"
	"testing"
	"unsafe"

	"ofar/internal/packet"
)

// TestPacketLayout pins the packet representation the router stage's header
// reads are tuned for — one 64-byte cache line per packet, carved from
// line-aligned pool blocks — and the hop accounting the compact header
// derives.
func TestPacketLayout(t *testing.T) {
	const line = 64
	if got := unsafe.Sizeof(packet.Packet{}); got != line {
		t.Errorf("sizeof(packet.Packet) = %d, want one %d-byte cache line", got, line)
	}
	t.Run("pool-alignment", func(t *testing.T) {
		// Two fresh blocks of 512 packets each: every packet, in particular
		// the first of each block, starts on a line boundary, so none
		// straddles two lines.
		var pool packet.Pool
		for i := 0; i < 1024; i++ {
			if addr := uintptr(unsafe.Pointer(pool.Get())); addr%line != 0 {
				t.Fatalf("packet %d of a fresh pool at %#x, not %d-byte aligned", i, addr, line)
			}
		}
	})
	t.Run("hop-sum", func(t *testing.T) {
		scen := goldenScenarios(t)
		files := make([]string, 0, len(scen))
		for f := range scen {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			t.Run(f, func(t *testing.T) { checkHopSum(t, scen[f]) })
		}
	})
}

// checkHopSum runs one golden scenario inline and checks, for every
// delivered packet, that the hop count it carried at delivery — the sum of
// its local, global and ring hop classes (Packet.TotalHops) — equals the
// number of link grants it won: every arrival increments exactly one class.
// The run logs every grant; after each cycle every buffered
// packet's hop counters are recorded (a packet sits in its destination
// router's buffer from its last arrival until its delivery drain ends, so
// the last record is its state at delivery). The grant log is drained every
// cycle to keep it small. Packets are keyed by (source, birth cycle): a node
// generates at most one packet per cycle.
func checkHopSum(t *testing.T, spec goldenSpec) {
	if testing.Short() && spec.h > 3 {
		t.Skip("h=6 scenario in -short mode")
	}
	cfg := DefaultConfig(spec.h)
	cfg.Seed = 12345
	cfg.Faults = spec.faults
	n := mustNet(t, cfg)
	n.SetGenerator(spec.generator(n))
	const logCap = 1 << 16
	n.EnableGrantLog(logCap)
	type key struct {
		src  int
		born int64
	}
	last := map[key]int{}
	grants := map[key]int{}
	delivered := 0
	for c := 0; c < spec.cycles; c++ {
		n.Step()
		for _, r := range n.Routers {
			r.ForEachPacket(func(p *packet.Packet) {
				last[key{int(p.Src), p.Born}] = p.TotalHops()
			})
		}
		if len(n.grantLog) == logCap {
			t.Fatalf("cycle %d filled the %d-entry grant log", c, logCap)
		}
		for _, g := range n.grantLog {
			k := key{g.Src, g.Born}
			if !g.Eject {
				grants[k]++
				continue
			}
			delivered++
			h, ok := last[k]
			switch {
			case !ok:
				t.Fatalf("packet %v granted ejection without being seen buffered", k)
			case h != grants[k]:
				t.Fatalf("packet %v: %d hops at delivery, %d link grants", k, h, grants[k])
			}
		}
		n.grantLog = n.grantLog[:0]
	}
	if delivered == 0 {
		t.Fatal("no deliveries in the scenario window")
	}
}
