package network

import (
	"fmt"
	"runtime"
	"testing"

	"ofar/internal/router"
)

// TestGroupArenasExact pins the exact sizing of the per-group router arenas:
// after New, every router's slices come from its own group's arena, and each
// group's slabs are consumed to the last element — no unused tail, nothing
// spilled off-arena — across ring modes, the route cache on and off, and the
// h=3 and h=6 builds. (The routing mechanism is MIN without a ring, whose
// engine also caches, and OFAR otherwise.)
func TestGroupArenasExact(t *testing.T) {
	for _, h := range []int{3, 6} {
		for _, ring := range []RingMode{RingNone, RingPhysical, RingEmbedded} {
			for _, noCache := range []bool{false, true} {
				t.Run(fmt.Sprintf("h%d/ring%d/nocache=%v", h, ring, noCache), func(t *testing.T) {
					cfg := DefaultConfig(h)
					cfg.Ring = ring
					if ring == RingNone {
						cfg.Routing = MIN // OFAR requires an escape ring
					}
					cfg.DisableRouteCache = noCache
					n := mustNet(t, cfg)
					arenas := make([]*router.Arena, n.Topo.G)
					for _, rt := range n.Routers {
						ar := rt.Arena()
						if ar == nil {
							t.Fatalf("router %d has no arena", rt.ID)
						}
						g := n.Topo.GroupOf(rt.ID)
						if arenas[g] == nil {
							arenas[g] = ar
						} else if arenas[g] != ar {
							t.Fatalf("router %d does not share its group's arena", rt.ID)
						}
					}
					for g, ar := range arenas {
						for h, other := range arenas[:g] {
							if other == ar {
								t.Fatalf("groups %d and %d share an arena", h, g)
							}
						}
						if unused, spilled := ar.Slack(); unused != 0 || spilled != 0 {
							t.Fatalf("group %d arena: %d elements unused, %d spilled off-arena", g, unused, spilled)
						}
					}
				})
			}
		}
	}
}

// TestNewAllocBudget guards what building a network allocates: with exactly
// sized group arenas an h=3 New stays under 4 MB (fixed-size arena chunks
// used to allocate and zero about 20 MB, of which about 2 MB was used). The
// minimum over a few builds discounts allocations by concurrent runtime work.
func TestNewAllocBudget(t *testing.T) {
	const budget = 4 << 20
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		mustNet(t, DefaultConfig(3))
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("h=3 New allocated %.2f MB", float64(best)/(1<<20))
	if best > budget {
		t.Fatalf("h=3 New allocated %d bytes, budget %d", best, budget)
	}
}
