package routing

import (
	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/topology"
)

// PAR implements Progressive Adaptive Routing (Jiang et al., ISCA 2009),
// discussed in the paper's §I/§II: the minimal-vs-Valiant decision is
// re-evaluated at every router of the source group (not only at injection),
// which allows up to two local hops in the source group. Deadlock freedom
// still comes from an ascending VC order, which therefore needs one extra
// local VC: local hops use VC = number of local hops already taken
// (0..3), global hops use VC = global hops taken (0..1). Configurations
// running PAR must provision 4 local VCs.
type PAR struct {
	d   *topology.Dragonfly
	cfg AdaptiveConfig
}

// NewPAR returns a PAR engine.
func NewPAR(d *topology.Dragonfly, cfg AdaptiveConfig) *PAR {
	return &PAR{d: d, cfg: cfg}
}

// Name implements router.Engine.
func (e *PAR) Name() string { return "PAR" }

// AtInjection implements router.Engine: the initial UGAL-style decision.
func (e *PAR) AtInjection(rt *router.Router, p *packet.Packet, _ int64) {
	if p.DstGroup == p.SrcGroup {
		return
	}
	vg := pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup))
	if vg < 0 {
		return
	}
	if ugalDecision(e.d, rt, p, vg, e.cfg) {
		p.ValiantGroup = int16(vg)
	}
}

// Route implements router.Engine. While the packet is still in its source
// group and committed to the minimal path, the decision is revisited with
// the local queue state of the *current* router; switching to Valiant
// mid-group is what distinguishes PAR from UGAL/PB.
func (e *PAR) Route(rt *router.Router, in router.InCtx, p *packet.Packet, now int64) (router.Request, bool) {
	if in.Kind == topology.PortLocal && // re-evaluation point: after a local hop
		rt.Group == int(p.SrcGroup) &&
		p.ValiantGroup < 0 &&
		p.DstGroup != p.SrcGroup &&
		p.GlobalHops == 0 {
		vg := pickIntermediate(e.d, rt, int(p.SrcGroup), int(p.DstGroup))
		if vg >= 0 && ugalDecision(e.d, rt, p, vg, e.cfg) {
			p.ValiantGroup = int16(vg) // in-transit divert (PAR's defining move)
		}
	}
	out := nextOut(e.d, rt.ID, p)
	if rt.OutBusy(out, now) {
		return router.Request{}, false
	}
	vc := e.vcFor(e.d.PortKindOf(out), p, rt.Out[out].NumVCs())
	if !rt.VCFits(out, vc, rt.PktSize) {
		return router.Request{}, false
	}
	return router.Request{Out: out, VC: vc}, true
}

// vcFor is PAR's ascending discipline: local hops consume one VC each in
// order (the extra source-group hop is why PAR needs 4 local VCs), globals
// use the shared 2-VC global order.
func (e *PAR) vcFor(kind topology.PortKind, p *packet.Packet, numVCs int) int {
	if kind == topology.PortNode {
		return 0
	}
	var vc int
	if kind == topology.PortGlobal {
		vc = int(p.GlobalHops)
	} else {
		vc = int(p.LocalHops)
	}
	if vc >= numVCs {
		vc = numVCs - 1
	}
	return vc
}
