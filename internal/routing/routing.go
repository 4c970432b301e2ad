// Package routing implements the baseline routing mechanisms the paper
// evaluates against OFAR (§V): minimal routing (MIN), Valiant randomized
// routing (VAL), Piggybacking (PB) and — as an extension — UGAL-L. All of
// them decide minimal-vs-nonminimal at injection time and prevent deadlock
// with an ascending virtual-channel order (3 VCs on local links and
// injection queues, 2 on global links).
package routing

import (
	"math"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// vcFor returns the deadlock-free VC for the next hop under the ascending
// VC discipline: every hop uses VC index = number of global hops already
// taken (locals: 0,1,2; globals: 0,1). Ejection uses VC 0.
func vcFor(kind topology.PortKind, p *packet.Packet, numVCs int) int {
	if kind == topology.PortNode {
		return 0
	}
	vc := int(p.GlobalHops)
	if vc >= numVCs {
		vc = numVCs - 1
	}
	return vc
}

// nextOut returns the output port on the committed path of a baseline
// packet: toward the Valiant intermediate group while one is pending,
// minimal afterwards.
func nextOut(d *topology.Dragonfly, r int, p *packet.Packet) int {
	if vg := int(p.ValiantGroup); vg >= 0 && d.GroupOf(r) != vg {
		return d.PortToGroup(r, vg)
	}
	return d.MinimalPort(r, int(p.Dst))
}

// fixedOut resolves the committed output port of a baseline packet, using
// the router's cached per-head hint (router.InCtx.MinHint) to skip the
// topology lookup when available. The hint is safe because everything
// nextOut reads — the packet's Valiant state and this router's group — is
// fixed while the packet sits at a buffer head.
func fixedOut(d *topology.Dragonfly, rt *router.Router, in router.InCtx, p *packet.Packet) int {
	if in.MinHint >= 0 {
		return int(in.MinHint)
	}
	return nextOut(d, rt.ID, p)
}

// routeFixed implements Route for every baseline: follow the committed path,
// wait when the required port/VC cannot accept the packet.
func routeFixed(d *topology.Dragonfly, rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	out := fixedOut(d, rt, in, p)
	if rt.OutBusy(out, now) {
		return router.Request{}, false
	}
	vc := vcFor(d.PortKindOf(out), p, rt.Out[out].NumVCs())
	if !rt.VCFits(out, vc, rt.PktSize) {
		return router.Request{}, false
	}
	return router.Request{Out: out, VC: vc}, true
}

// fixedDeps implements router.CacheableEngine's RouteDeps for the fixed-path
// baselines. The engines are stateless and shared across pool workers, so
// rather than recording reads during Route they re-derive them here: the
// only output port routeFixed consults is the committed one, the decision is
// time-independent, and the committed port doubles as the per-head anchor.
func fixedDeps(d *topology.Dragonfly, rt *router.Router, in router.InCtx, p *packet.Packet) (uint64, int64, int32) {
	out := fixedOut(d, rt, in, p)
	return 1 << uint(out), math.MaxInt64, int32(out)
}

// pickIntermediate selects a random intermediate group different from both
// the source and destination groups; it returns -1 when the network has no
// third group.
func pickIntermediate(d *topology.Dragonfly, rt *router.Router, src, dst int) int {
	if d.G < 3 {
		return -1
	}
	if src == dst { // intra-group traffic: exclude only one group
		vg := rt.RandInt(d.G - 1)
		if vg >= src {
			vg++
		}
		return vg
	}
	vg := rt.RandInt(d.G - 2)
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	if vg >= lo {
		vg++
	}
	if vg >= hi {
		vg++
	}
	return vg
}

// Minimal is the MIN mechanism: always the shortest path.
type Minimal struct{ d *topology.Dragonfly }

// NewMinimal returns a MIN engine.
func NewMinimal(d *topology.Dragonfly) *Minimal { return &Minimal{d: d} }

// Name implements router.Engine.
func (e *Minimal) Name() string { return "MIN" }

// AtInjection implements router.Engine.
func (e *Minimal) AtInjection(*router.Router, *packet.Packet, int64) {}

// Route implements router.Engine.
func (e *Minimal) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return routeFixed(e.d, rt, in, p, now)
}

// RouteDeps implements router.CacheableEngine.
func (e *Minimal) RouteDeps(rt *router.Router, in router.InCtx, p *packet.Packet, _ int64) (uint64, int64, int32) {
	return fixedDeps(e.d, rt, in, p)
}

// Valiant is the VAL mechanism: every packet visits a random intermediate
// group before traveling minimally to its destination.
type Valiant struct{ d *topology.Dragonfly }

// NewValiant returns a VAL engine.
func NewValiant(d *topology.Dragonfly) *Valiant { return &Valiant{d: d} }

// Name implements router.Engine.
func (e *Valiant) Name() string { return "VAL" }

// AtInjection implements router.Engine.
func (e *Valiant) AtInjection(rt *router.Router, p *packet.Packet, _ int64) {
	p.ValiantGroup = int16(pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup)))
}

// Route implements router.Engine.
func (e *Valiant) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	return routeFixed(e.d, rt, in, p, now)
}

// RouteDeps implements router.CacheableEngine.
func (e *Valiant) RouteDeps(rt *router.Router, in router.InCtx, p *packet.Packet, _ int64) (uint64, int64, int32) {
	return fixedDeps(e.d, rt, in, p)
}
