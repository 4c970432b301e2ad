// Package core implements OFAR — On-the-Fly Adaptive Routing — the paper's
// primary contribution (§IV): a flow-control/routing mechanism for dragonfly
// networks that decouples virtual-channel usage from deadlock avoidance.
//
// OFAR misroutes packets in transit, locally (around a saturated local link,
// once per group) or globally (to a random intermediate group, once per
// packet and only from the source group), based purely on the occupancy of
// the current router's output queues compared against two thresholds. A
// Hamiltonian escape ring with bubble (restricted-injection) flow control
// guarantees deadlock freedom, so canonical VCs exist only to reduce
// head-of-line blocking.
package core

import (
	"fmt"
	"math"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// Config holds OFAR's tunables. The paper's evaluation (§V) uses the
// variable threshold policy Th_min = 0 %, Th_non-min = 0.9 · Q_min.
type Config struct {
	// ThMin is the occupancy fraction the minimal output queue must reach
	// before misrouting is considered (in addition to the minimal port
	// being unavailable). 0 reproduces the paper's variable policy; 1.0
	// with a static non-minimal threshold reproduces the static example
	// (Th_min = 100 %, Th_non-min = 40 %).
	ThMin float64

	// NonMinFactor is the variable threshold factor: a non-minimal output
	// is a misroute candidate when its occupancy ≤ NonMinFactor · Q_min.
	NonMinFactor float64

	// StaticNonMin, when ≥ 0, replaces the variable threshold with a fixed
	// occupancy bound (e.g. 0.40).
	StaticNonMin float64

	// LocalMisroute enables in-transit local misrouting; false yields the
	// OFAR-L model used in the paper to dissect local-misroute benefits.
	LocalMisroute bool

	// EscapeTimeout is how many consecutive blocked cycles a head packet
	// tolerates before requesting the escape ring. 0 requests the ring as
	// soon as neither the minimal port nor any misroute candidate can
	// accept the packet; a negative value disables the escape network
	// (only safe for experiments that cannot deadlock).
	EscapeTimeout int

	// MaxRingExits bounds how many times a packet may leave the escape
	// ring (§IV-C livelock guard). Once exhausted the packet rides the
	// ring to its destination router, which the Hamiltonian ring always
	// reaches.
	MaxRingExits int

	// LeastOccupied selects the least-occupied misroute candidate instead
	// of a random one. The paper argues this is the WRONG choice ("always
	// selecting the least congested output would not be appropriate, since
	// multiple input ports could compete for the same output", §IV-B); the
	// option exists to test that claim (see BenchmarkAblationSelection).
	LeastOccupied bool
}

// DefaultConfig returns the repository's default OFAR tuning: the §IV-B
// static threshold policy (Th_min = 100 %, Th_non-min = 40 %): misroute
// only when the minimal output has no credits left, to outputs with at
// least 60 % of their credit count available.
//
// The paper's own evaluation used the variable policy (Th_min = 0,
// Th_non-min = 0.9·Q_min — set ThMin: 0, NonMinFactor: 0.9,
// StaticNonMin: -1 to select it), chosen "empirically, by simulating the
// network with variable threshold factors, and selecting a reasonable
// trade-off between the performance in adversarial and uniform traffic
// patterns" (§V). Running the same empirical selection against this
// repository's router model picks the static policy: it matches the
// variable policy on adversarial traffic (h=6 ADV+6: 0.391 vs 0.400) and
// is dramatically more robust under saturated uniform traffic (h=6 UN at
// offered 1.0: stable 0.615 vs a misroute-storm collapse), because it only
// misroutes on genuine credit exhaustion rather than on port-busy noise.
func DefaultConfig() Config {
	return Config{
		ThMin:         1.0,
		NonMinFactor:  0.9,
		StaticNonMin:  0.4,
		LocalMisroute: true,
		EscapeTimeout: 32,
		MaxRingExits:  16,
	}
}

// VariablePolicyConfig returns the paper's §V variable-threshold tuning
// (Th_min = 0, Th_non-min = 0.9·Q_min).
func VariablePolicyConfig() Config {
	cfg := DefaultConfig()
	cfg.ThMin = 0
	cfg.StaticNonMin = -1
	return cfg
}

// OFAR is the routing engine. One instance serves a whole network when the
// cycle loop is serial; the parallel engine gives each worker its own clone
// (CloneForWorker) because of the scratch candidate buffer.
type OFAR struct {
	cfg  Config
	d    *topology.Dragonfly
	name string

	cand []int // scratch: misroute candidate ports

	// Dep recording for the router's route cache (router.CacheableEngine):
	// Route accumulates the output ports it reads in depMask and the first
	// cycle its decision could change through time alone in depExpire;
	// depMin is the per-head minimal-port anchor. RouteDeps reports them.
	// Per-call scratch like cand, so per-worker clones keep it race-free.
	depMask   uint64
	depExpire int64
	depMin    int32
}

// dep records that the current Route call read output port `port`.
func (e *OFAR) dep(port int) { e.depMask |= 1 << uint(port) }

// minPort resolves the minimal output port for the head packet, using the
// router's cached per-head hint to skip the topology lookup when possible,
// and records it as the RouteDeps anchor.
func (e *OFAR) minPort(rt *router.Router, in router.InCtx, p *packet.Packet) int {
	if in.MinHint >= 0 {
		e.depMin = in.MinHint
		return int(in.MinHint)
	}
	min := e.d.MinimalPort(rt.ID, int(p.Dst))
	e.depMin = int32(min)
	return min
}

// RouteDeps implements router.CacheableEngine: it reports the read set the
// immediately preceding Route call recorded. Each worker has its own clone
// (CloneForWorker), so the Route → RouteDeps pairing cannot interleave.
func (e *OFAR) RouteDeps(*router.Router, router.InCtx, *packet.Packet, int64) (uint64, int64, int32) {
	return e.depMask, e.depExpire, e.depMin
}

// New builds an OFAR engine for a topology. With cfg.LocalMisroute == false
// the engine is the OFAR-L model.
func New(d *topology.Dragonfly, cfg Config) *OFAR {
	name := "OFAR"
	if !cfg.LocalMisroute {
		name = "OFAR-L"
	}
	if cfg.NonMinFactor <= 0 && cfg.StaticNonMin < 0 {
		panic(fmt.Sprintf("core: OFAR config has no usable non-minimal threshold: %+v", cfg))
	}
	return &OFAR{cfg: cfg, d: d, name: name, cand: make([]int, 0, d.RouterPorts)}
}

// Name implements router.Engine.
func (e *OFAR) Name() string { return e.name }

// CloneForWorker implements router.ConcurrentCloner: the candidate scratch
// buffer is the engine's only mutable state and it is rebuilt on every Route
// call, so a fresh instance with the same config and topology is
// decision-for-decision identical to the original.
func (e *OFAR) CloneForWorker() router.Engine { return New(e.d, e.cfg) }

// AtInjection implements router.Engine. OFAR takes no decision at injection
// time — that is the point of the mechanism.
func (e *OFAR) AtInjection(*router.Router, *packet.Packet, int64) {}

// chooseVC picks the downstream VC for a canonical hop. OFAR does not need
// VC ordering for deadlock freedom, but it keeps the baselines' hop-class
// assignment (local VC = global hops taken, global VC = global hops taken):
// the paper states the VCs are retained "to reduce HOL blocking" (§V), and
// the hop-class discipline additionally keeps the canonical traffic almost
// acyclic, so cyclic buffer waits — which only the escape ring can resolve —
// stay rare events instead of an absorbing congestion state. Misrouted
// packets reuse the class of their current phase (extra local hops do not
// advance the class), which is where the residual cycles the ring exists
// for can come from.
func chooseVC(rt *router.Router, port int, p *packet.Packet, now int64) (int, bool) {
	op := &rt.Out[port]
	if op.Kind == topology.PortNode {
		return 0, !op.Busy(now)
	}
	if op.Kind == topology.PortNone || op.Busy(now) {
		return -1, false
	}
	vc := int(p.GlobalHops)
	if n := op.NumVCs(); vc >= n {
		vc = n - 1
	}
	if op.EscapeRing(vc) >= 0 || op.Credits(vc) < rt.PktSize {
		return -1, false
	}
	return vc, true
}

// Route implements router.Engine (paper §IV-A/B).
func (e *OFAR) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	e.depMask, e.depExpire = 0, math.MaxInt64
	if in.Escape {
		return e.routeOnRing(rt, in, p, now)
	}
	size := rt.PktSize
	min := e.minPort(rt, in, p)
	e.dep(min)
	if vc, ok := chooseVC(rt, min, p, now); ok {
		return router.Request{Out: min, VC: vc}, true
	}
	minKind := e.d.PortKindOf(min)
	if minKind == topology.PortNode {
		// Destination router with a busy ejector: the eject port drains at
		// 1 phit/cycle, so just wait.
		return router.Request{}, false
	}
	// The minimal port is unavailable (assigned to another packet or out of
	// credits). Decide whether misrouting is allowed:
	//
	// Static policy (§IV-B example, Th_min = 100%): "misroute only occurs
	// when the minimal path has no credits left" — the packet's class VC on
	// the minimal port is credit-exhausted — "using an output with at least
	// 60% of its credit count available": candidate aggregate occupancy
	// ≤ StaticNonMin.
	//
	// Variable policy (§V default): allowed whenever the minimal port is
	// unavailable and Q_min ≥ Th_min, with candidates strictly below
	// NonMinFactor·Q_min ("less than 0.9 times the occupancy of the
	// minimal one"). The strictness matters: with an empty minimal queue
	// nothing qualifies, so a mere serialization collision does not
	// trigger misrouting — only real backlog does.
	if e.cfg.StaticNonMin >= 0 {
		if !vcFits(rt, min, p) {
			if req, ok := e.misroute(rt, in, p, min, minKind, e.cfg.StaticNonMin, false, now); ok {
				return req, true
			}
		}
	} else if qmin := occFor(rt, min, p); qmin >= e.cfg.ThMin {
		th := e.cfg.NonMinFactor * qmin
		if req, ok := e.misroute(rt, in, p, min, minKind, th, true, now); ok {
			return req, true
		}
	}
	// Last resort: the escape ring, once the packet has been blocked long
	// enough. Ring entry demands a two-packet bubble (§IV-C).
	if e.cfg.EscapeTimeout >= 0 && rt.NumRings() > 0 {
		if now-p.BlockedSince >= int64(e.cfg.EscapeTimeout) {
			if ring, port, vc, ok := e.pickRing(rt, 2*size, now); ok {
				return router.Request{Out: port, VC: vc, Escape: true, EnterRing: true, Ring: int8(ring)}, true
			}
		} else if x := p.BlockedSince + int64(e.cfg.EscapeTimeout); x < e.depExpire {
			// Not blocked long enough yet: the decision flips by time alone
			// when the threshold is crossed, so the cache must expire there.
			e.depExpire = x
		}
	}
	return router.Request{}, false
}

// routeOnRing handles packets stored in escape channels: leave the ring as
// soon as a minimal output is available (within the exit budget), otherwise
// advance along the ring under the one-packet bubble rule.
func (e *OFAR) routeOnRing(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	min := e.minPort(rt, in, p)
	minKind := e.d.PortKindOf(min)
	// Ejection at the destination router is always permitted regardless of
	// the exit budget; otherwise the packet could never leave the network.
	if int(p.RingExits) < e.cfg.MaxRingExits || minKind == topology.PortNode {
		e.dep(min)
		if vc, ok := chooseVC(rt, min, p, now); ok {
			return router.Request{Out: min, VC: vc, ExitRing: true}, true
		}
	}
	port, vc, credits, ok := rt.RingOut(in.Ring)
	if ok {
		e.dep(port) // a dead ring edge (ok == false) never heals; no dep
		if credits >= rt.PktSize && !rt.OutBusy(port, now) {
			return router.Request{Out: port, VC: vc, Escape: true, Ring: int8(in.Ring)}, true
		}
	}
	return router.Request{}, false
}

// misroute applies the §IV-A policy to choose the set of non-minimal
// candidate ports, then requests a random candidate below the occupancy
// threshold.
//
// Policy summary:
//   - traffic internal to the destination group, or transiting a group that
//     is not its source: only local misroute, and only when the minimal
//     output is a (saturated) local port;
//   - in the source group: packets in injection queues misroute globally,
//     packets in local queues misroute locally first and globally second
//     (the order prevents starvation of the saturated router's own nodes).
func (e *OFAR) misroute(rt *router.Router, in router.InCtx, p *packet.Packet, min int, minKind topology.PortKind, th float64, strict bool, now int64) (router.Request, bool) {
	g := rt.Group
	// Local misrouting requires the minimal local port to be *saturated*
	// (§IV-A: "only local misrouting is allowed when the minimal output is
	// a saturated local port"): the hop-class VC must be out of credits,
	// not merely busy serializing another packet. A collision is resolved
	// by waiting a few cycles; real backlog is what local detours exist
	// for. Global misrouting keeps the weaker busy-or-full trigger — it is
	// the load-balancing decision, and deferring it to credit exhaustion
	// would recreate injection-time routing.
	localSat := minKind == topology.PortLocal && !vcFits(rt, min, p)
	tryLocal, tryGlobal := false, false
	switch {
	case int(p.DstGroup) == g:
		tryLocal = e.cfg.LocalMisroute && !p.LocalMisrouted && localSat
	case int(p.SrcGroup) == g:
		if in.Kind == topology.PortNode {
			tryGlobal = !p.GlobalMisrouted
		} else if e.cfg.LocalMisroute && !p.LocalMisrouted && localSat {
			tryLocal = true
		} else {
			tryGlobal = !p.GlobalMisrouted
		}
	default: // intermediate group
		tryLocal = e.cfg.LocalMisroute && !p.LocalMisrouted && localSat
	}
	if tryLocal {
		if req, ok := e.pickAmong(rt, e.d.LocalPortBase(), e.d.A-1, min, th, strict, p, now); ok {
			req.SetLocalMis = true
			return req, true
		}
	}
	if tryGlobal {
		if req, ok := e.pickAmong(rt, e.d.GlobalPortBase(), e.d.H, min, th, strict, p, now); ok {
			req.SetGlobalMis = true
			return req, true
		}
	}
	return router.Request{}, false
}

// pickAmong selects uniformly at random among the ports in
// [base, base+count) that are not the minimal port, not busy, have credits
// for the packet, and satisfy Q_non-min ≤ th. Random selection (rather than
// least-occupied) avoids synchronized convergence of many inputs on the
// same output (§IV-B).
func (e *OFAR) pickAmong(rt *router.Router, base, count, exclude int, th float64, strict bool, p *packet.Packet, now int64) (router.Request, bool) {
	e.cand = e.cand[:0]
	for port := base; port < base+count; port++ {
		if port == exclude {
			continue
		}
		e.dep(port)
		if rt.OutBusy(port, now) {
			continue
		}
		occ := occFor(rt, port, p)
		if occ > th || (strict && occ >= th) {
			continue
		}
		vc, ok := chooseVC(rt, port, p, now)
		if !ok {
			continue
		}
		// Demand real headroom (two packets) on the candidate: VC FIFOs
		// hold only a handful of packets, so a nearly-full "alternative"
		// is measurement noise, not an escape valve, and chasing it under
		// symmetric saturation wastes bandwidth on longer paths.
		if rt.Out[port].Credits(vc) < 2*rt.PktSize {
			continue
		}
		e.cand = append(e.cand, port)
	}
	if len(e.cand) == 0 {
		return router.Request{}, false
	}
	var port int
	if e.cfg.LeastOccupied {
		port = e.cand[0]
		best := occFor(rt, port, p)
		for _, c := range e.cand[1:] {
			if occ := occFor(rt, c, p); occ < best {
				port, best = c, occ
			}
		}
	} else {
		port = e.cand[rt.RandInt(len(e.cand))]
	}
	vc, _ := chooseVC(rt, port, p, now)
	return router.Request{Out: port, VC: vc}, true
}

// vcFits reports whether the packet's hop-class VC on the given port has
// credits for it. A dead port never fits — this is what turns a failed
// minimal link into a misrouting trigger under the static policy, which only
// consults credits (not Busy) when deciding to divert.
func vcFits(rt *router.Router, port int, p *packet.Packet) bool {
	op := &rt.Out[port]
	if op.Dead() {
		return false
	}
	vc := int(p.GlobalHops)
	if n := op.NumVCs(); vc >= n {
		vc = n - 1
	}
	return op.Credits(vc) >= rt.PktSize
}

// occFor returns the occupancy fraction used in threshold comparisons: the
// aggregate canonical occupancy of the port (§IV-B compares "the percentage
// of buffer occupancy" of whole queues). Aggregating across the port's VCs
// pools 3 VCs (12 packets) of signal, which discriminates a genuinely
// saturated hotspot (ADV+h: the l2 port is full across classes while
// alternatives idle) from symmetric-overload noise (UN: every port's class
// VC oscillates around full while aggregates stay comparable). The
// class-VC-granular checks remain where the physical resource matters: the
// misroute *trigger* (vcFits) and the candidate headroom filter.
func occFor(rt *router.Router, port int, _ *packet.Packet) float64 {
	return rt.OutOcc(port)
}

// pickRing returns the escape ring whose next-hop channel has the most
// credits, provided it meets the needed bubble and its port is free.
func (e *OFAR) pickRing(rt *router.Router, needed int, now int64) (ring, port, vc int, ok bool) {
	bestCr := -1
	for j := 0; j < rt.NumRings(); j++ {
		pj, vj, cr, okj := rt.RingOut(j)
		if !okj {
			continue // a failed ring edge never heals; no dep
		}
		e.dep(pj)
		if cr < needed || rt.OutBusy(pj, now) {
			continue
		}
		if cr > bestCr {
			ring, port, vc, bestCr, ok = j, pj, vj, cr, true
		}
	}
	return
}
