package router

import (
	"fmt"
	"math"
	"math/bits"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// PortSpec describes one bidirectional port pair of a router: the input
// buffer profile (what this router stores) and the output credit profile
// (mirroring the downstream input buffer at the other end of the link).
type PortSpec struct {
	Kind     topology.PortKind
	Peer     int // downstream router fed by this port's output; -1 when unwired
	PeerPort int // downstream router's input-port index
	// UpRouter/UpPort identify the upstream output feeding this port's
	// input buffer. For canonical bidirectional links these equal
	// Peer/PeerPort; unidirectional escape-ring ports differ (the input
	// comes from the ring predecessor while the output feeds the
	// successor).
	UpRouter int
	UpPort   int
	Latency  int // link latency in cycles

	InCaps  []int // per-VC capacities of this router's input buffer (phits)
	InRing  []int // escape-ring tag per input VC (-1 canonical)
	OutCaps []int // per-VC capacities of the downstream buffer (credits)
	OutRing []int // escape-ring tag per downstream VC
}

// Params configures one router instance.
type Params struct {
	ID         int
	Topo       *topology.Dragonfly
	PktSize    int
	AllocIters int // separable-allocator iterations (paper: 3)
	RNG        *simcore.RNG
	Ports      []PortSpec

	// Escape subnetwork: output port realizing each ring's next hop
	// (empty when no escape network is configured).
	RingOuts []int

	// PB piggybacking board shared by the router's group (nil when the
	// routing mechanism does not use it).
	PB          *FlagBoard
	PBThreshold float64
}

// Router is one input-buffered VCT router.
type Router struct {
	ID    int
	Group int
	Topo  *topology.Dragonfly

	In  []InPort
	Out []OutPort

	PktSize    int
	AllocIters int

	rng         *simcore.RNG
	pb          *FlagBoard
	pbThreshold float64

	ringOuts []int32

	// canonical input-buffer occupancy, tracked incrementally for the
	// congestion-management injection throttle.
	occPhits int
	capPhits int

	// readyVCs counts input VCs holding a routable head: non-empty and not
	// draining. It is maintained incrementally by Arrive/Inject/commit/
	// FinishDrain and is the network activity scheduler's wake predicate —
	// when it is zero, Cycle provably has no side effects (no engine.Route
	// call, no RNG draw, no arbiter movement, no header writes), so the
	// router may be skipped without perturbing the simulation. readyPorts is
	// the port-level projection (bit ip set iff In[ip].ready != 0), kept at
	// the same sites, so Cycle iterates only ports that can hold work.
	readyVCs   int
	readyPorts uint64

	// pbDirty is set whenever the canonical occupancy of a global output
	// port may have changed (credits taken or refunded), i.e. whenever the
	// PB flags this router publishes could differ from their last published
	// values. The network republishes only dirty routers.
	pbDirty bool

	// allocator scratch state (reused every cycle). Request validity and the
	// separable-allocator match state live in bitsets: reqMask[ip] holds the
	// valid-request VC mask of input port ip (rebuilt from scratch each
	// cycle), outCandMask[op] the candidate input-port mask of output port op
	// (cleared as it is consumed). The flattened reqs slots are never
	// cleared — a slot is only read when its reqMask bit is set this cycle,
	// and only a re-evaluation of that (port, vc) writes it, which is what
	// lets route-cache hits skip the write entirely.
	inArb       []LRS
	outArb      []LRS
	reqs        []Request
	reqMask     []uint64
	vcBase      []int32
	candVC      []int32
	outCandMask []uint64
	touchedOut  []int32 // outputs with candidates, in first-touch order
	grants      []Grant

	// Route-cache state (EnableRouteCache). dirty accumulates a bit per
	// output port whose engine-visible state changed since the last
	// formation pass captured it: credits taken (commit) or refunded
	// (AddCredit), busy→free expiry (the nextFree scan at the top of Cycle),
	// link death (FailOutput), ring-edge removal (FailRing) and structural
	// credit surgery (NoteOutMutated). Cycle drains dirty into the cycle's
	// invalidation window; a cached decision is stale iff its read-set mask
	// intersects the window. Live cache entries are re-validated every Cycle
	// (an entry's VC has its ready bit set by definition), with two gaps
	// both covered: a busy input port's entries are skipped for the busy
	// span, so the skipped windows accumulate in pendingDirty[ip]; a
	// sleeping router runs no Cycle at all, so dirty itself accumulates
	// until the next wake captures the union. rngDraws counts RandInt calls:
	// a decision that consumed randomness is never cached, which is what
	// makes replaying a cached decision deterministic.
	cacheOn      bool
	dirty        uint64
	pendingDirty []uint64
	nextFree     int64 // earliest future busy→free transition; MaxInt64 if none
	rngDraws     uint64

	// Port-level formation memo, layered on the per-VC entries: when every
	// ready VC of an input port holds a valid cache entry, the port's whole
	// formation outcome (its request mask) is stored together with the OR of
	// the entries' read sets (portDep), the min of their expiries (portExp)
	// and a formed bit. A later cycle whose dirty window misses portDep, with
	// no head change on the port (headChanged) and no expiry reached, replays
	// the stored mask without touching a single buffer — each per-VC check
	// would have hit with the same outcome, so replay ≡ recompute.
	formed      uint64
	headChanged uint64
	portDep     []uint64
	portExp     []int64
	portReqM    []uint64

	// outBusy mirrors "Out[o].busyUntil > now" under cacheOn: commit sets a
	// port's bit, the nextFree expiry scan clears crossed bits. It lets the
	// scan walk only busy ports and turns the allocator's available-output
	// rebuild into a complement (allOut is the all-ports mask).
	outBusy uint64
	allOut  uint64

	// arena backs late slice allocations (EnableRouteCache) with the same
	// group slabs the constructor used; nil for bare test routers.
	arena *Arena

	// prefetchSink absorbs the head-prefetch pass's reads (see Cycle) so the
	// compiler cannot elide them. Write-only scratch: never read, never
	// fingerprinted, never serialized.
	prefetchSink int64
}

// New builds a router from its parameter block, its slices on the heap.
func New(p Params) *Router {
	r := new(Router)
	newInto(r, p, nil)
	return r
}

// NewGroup constructs one dragonfly group's routers in place, dst[i] from
// ps[i], with every slice they allocate (ports, VC buffers, queue backings,
// arbiter rows, allocator scratch and, when routeCache is set, the route
// cache's masks) carved from one arena sized exactly for the group. The
// network lays the routers of a group out in one contiguous []Router, so
// the group's entire working set — the Router structs and everything they
// point at — occupies a few allocations in iteration order.
//
// The group is built twice: first against sizer (see NewSizer), which
// counts each type's elements while handing out scratch, then against the
// arena Carve allocates from those counts. Both passes run the same code in
// the same order, so the second consumes every slab exactly. Construction
// reads its parameters only (no RNG draw, no shared board write), so the
// first pass leaves no trace.
func NewGroup(dst []Router, ps []Params, routeCache bool, sizer *Arena) {
	build := func(ar *Arena) {
		for i := range ps {
			newInto(&dst[i], ps[i], ar)
		}
		if routeCache {
			for i := range dst {
				dst[i].EnableRouteCache()
			}
		}
	}
	build(sizer)
	build(sizer.Carve())
}

// newInto initializes a router in place, carving its slices from ar (nil
// keeps plain make).
func newInto(r *Router, p Params, ar *Arena) {
	*r = Router{
		ID:          p.ID,
		Group:       p.Topo.GroupOf(p.ID),
		Topo:        p.Topo,
		PktSize:     p.PktSize,
		AllocIters:  p.AllocIters,
		rng:         p.RNG,
		pb:          p.PB,
		pbThreshold: p.PBThreshold,
		arena:       ar,
	}
	if r.AllocIters < 1 {
		r.AllocIters = 1
	}
	n := len(p.Ports)
	r.In = ar.InPorts(n)
	r.Out = ar.OutPorts(n)
	r.inArb = ar.LRSs(n)
	r.outArb = ar.LRSs(n)
	r.vcBase = ar.Int32s(n + 1)
	r.candVC = ar.Int32s(n)
	r.reqMask = ar.Uint64s(n)
	r.outCandMask = ar.Uint64s(n)
	total := 0
	var ringTags []int8
	for i, ps := range p.Ports {
		r.vcBase[i] = int32(total)
		in := &r.In[i]
		in.Kind = ps.Kind
		in.UpRouter, in.UpPort = ps.UpRouter, ps.UpPort
		if ps.Kind == topology.PortNode {
			in.UpRouter, in.UpPort = -1, -1
		}
		in.VCs = ar.VCBuffers(len(ps.InCaps))
		for vc := range in.VCs {
			ring := -1
			if ps.InRing != nil {
				ring = ps.InRing[vc]
			}
			buf := &in.VCs[vc]
			// Pre-carve the queue backing at the worst-case live length
			// (Capacity/PktSize packets plus the compaction-deferred popped
			// prefix, which FinishDrain bounds at one more live length): the
			// steady state then never appends past the arena cap.
			maxPkts := 1
			if p.PktSize > 0 {
				maxPkts = ps.InCaps[vc]/p.PktSize + 1
			}
			buf.q = ar.PacketSlots(2*maxPkts + 2)
			buf.Init(ps.InCaps[vc], ring)
			if ring < 0 {
				r.capPhits += ps.InCaps[vc]
			}
		}
		out := &r.Out[i]
		out.Kind = ps.Kind
		out.Peer, out.PeerPort = ps.Peer, ps.PeerPort
		if ps.Kind == topology.PortNode {
			out.Peer, out.PeerPort = -1, -1
		}
		out.Latency = ps.Latency
		ringTags = ringTags[:0]
		for vc := range ps.OutCaps {
			tag := int8(-1)
			if ps.OutRing != nil {
				tag = int8(ps.OutRing[vc])
			}
			ringTags = append(ringTags, tag)
		}
		out.initOut(ar, ps.OutCaps, ringTags)
		r.inArb[i].initLRS(ar, len(ps.InCaps))
		r.outArb[i].initLRS(ar, n)
		total += len(ps.InCaps)
	}
	r.vcBase[n] = int32(total)
	r.reqs = ar.Requests(total)
	r.ringOuts = ar.Int32s(len(p.RingOuts))
	for i, po := range p.RingOuts {
		r.ringOuts[i] = int32(po)
	}
}

// --- engine-facing helpers ---------------------------------------------------

// RandInt returns a uniform integer in [0,n) from the router's private RNG.
// The draw counter lets Cycle detect decisions that consumed randomness and
// refuse to cache them.
func (r *Router) RandInt(n int) int {
	r.rngDraws++
	return r.rng.Intn(n)
}

// EnableRouteCache turns on dirty-mask-invalidated route memoization. The
// network calls it once, after construction, when the routing engine
// implements CacheableEngine and the config allows caching. Runs are
// bit-identical with the cache on or off (see TestRouteCacheDifferential);
// the cache only skips recomputation of decisions whose inputs provably did
// not change.
func (r *Router) EnableRouteCache() {
	if len(r.Out) > 64 {
		panic("router: route cache requires <= 64 ports (enforced by config validation)")
	}
	r.cacheOn = true
	r.pendingDirty = r.arena.Uint64s(len(r.In))
	r.portDep = r.arena.Uint64s(len(r.In))
	r.portExp = r.arena.Int64s(len(r.In))
	r.portReqM = r.arena.Uint64s(len(r.In))
	r.allOut = ^uint64(0) >> uint(64-len(r.Out))
	r.nextFree = math.MaxInt64
}

// Arena returns the arena backing the router's slices (nil for routers
// built by New).
func (r *Router) Arena() *Arena { return r.arena }

// NoteOutMutated records that an output port's credit or peer state was
// rewritten outside the normal commit/refund paths (escape-ring splice
// surgery). Cached decisions that read the port are invalidated.
func (r *Router) NoteOutMutated(port int) {
	if r.cacheOn {
		r.dirty |= 1 << uint(port)
	}
}

// OutBusy reports whether an output port is serializing a previous packet.
func (r *Router) OutBusy(port int, now int64) bool { return r.Out[port].Busy(now) }

// OutOcc returns the canonical occupancy fraction of the downstream buffer.
func (r *Router) OutOcc(port int) float64 { return r.Out[port].Occupancy() }

// OutOccVC returns the occupancy fraction of one downstream VC.
func (r *Router) OutOccVC(port, vc int) float64 {
	op := &r.Out[port]
	if cap := op.VCCap(vc); cap > 0 {
		return 1 - float64(op.Credits(vc))/float64(cap)
	}
	return 0
}

// Avail reports whether output `port` can accept a packet of `size` phits
// right now, returning the canonical VC to use (the one with most credits).
func (r *Router) Avail(port, size int, now int64) (int, bool) {
	op := &r.Out[port]
	if op.Kind == topology.PortNone || op.Busy(now) {
		return -1, false
	}
	if op.Kind == topology.PortNode {
		return 0, true // ejection has no credit constraint
	}
	return op.bestCanonicalVC(size)
}

// VCFits reports whether a specific downstream VC has credits for size phits
// (ejection ports always fit). Dead ports never fit: frozen credits would
// otherwise keep looking available forever.
func (r *Router) VCFits(port, vc, size int) bool {
	op := &r.Out[port]
	if op.dead {
		return false
	}
	if op.Kind == topology.PortNode {
		return true
	}
	return op.Credits(vc) >= size
}

// FailOutput marks one output port's link as failed: the port becomes
// permanently busy and is never granted again. PB flags of a dead global
// link must republish as congested, so the router is marked dirty.
func (r *Router) FailOutput(port int) {
	r.Out[port].Fail()
	if r.cacheOn {
		r.dirty |= 1 << uint(port)
	}
	if r.pb != nil && r.Out[port].Kind == topology.PortGlobal {
		r.pbDirty = true
	}
}

// OutputDead reports whether an output port's link has failed.
func (r *Router) OutputDead(port int) bool {
	return port >= 0 && port < len(r.Out) && r.Out[port].dead
}

// DropBuffered discards every packet buffered in this router's input VCs,
// except heads that already won allocation and are draining (their phits are
// on the crossbar; the pending FinishDrain completes them). Routable heads
// that are dropped decrement the activity counter. Used when the whole
// router fails.
func (r *Router) DropBuffered(visit func(*packet.Packet)) {
	for i := range r.In {
		for vc := range r.In[i].VCs {
			buf := &r.In[i].VCs[vc]
			if buf.Len() > 0 && !buf.Draining() {
				r.readyVCs-- // the routable head is among the dropped
				r.In[i].ready &^= 1 << uint(vc)
			}
			before := buf.Occupied()
			buf.DropQueued(r.PktSize, visit)
			if !buf.Escape {
				r.occPhits -= before - buf.Occupied()
			}
		}
		if r.In[i].ready == 0 {
			r.readyPorts &^= 1 << uint(i)
		}
		r.headChanged |= 1 << uint(i)
	}
}

// NumRings returns the number of escape rings configured on this router.
func (r *Router) NumRings() int { return len(r.ringOuts) }

// RingOut returns the output port and escape VC continuing ring `ring` from
// this router, along with that VC's current credits. A failed ring edge
// (FailRing) reports ok == false.
func (r *Router) RingOut(ring int) (port, vc, credits int, ok bool) {
	if ring < 0 || ring >= len(r.ringOuts) {
		return -1, -1, 0, false
	}
	port = int(r.ringOuts[ring])
	if port < 0 {
		return -1, -1, 0, false
	}
	op := &r.Out[port]
	vc, ok = op.bestEscapeVC(ring)
	if !ok {
		return -1, -1, 0, false
	}
	return port, vc, op.Credits(vc), true
}

// FailRing marks this router's outgoing edge of the given escape ring as
// failed (§VII reliability discussion): the ring can no longer be entered
// or continued from here. Packets already queued on the ring upstream exit
// through canonical outputs as usual.
func (r *Router) FailRing(ring int) {
	if ring >= 0 && ring < len(r.ringOuts) {
		if po := r.ringOuts[ring]; po >= 0 && r.cacheOn {
			r.dirty |= 1 << uint(po) // cached RingOut reads of this port are stale
		}
		r.ringOuts[ring] = -1
	}
}

// PBFlag returns the delayed piggybacked congestion flag of group-link
// `link` (0..a·h-1) as seen at cycle now.
func (r *Router) PBFlag(link int, now int64) bool {
	if r.pb == nil {
		return false
	}
	return r.pb.Get(now, link)
}

// UpdatePBFlags publishes the congestion state of this router's own global
// links to the group's flag board. The board stores transitions, so calling
// this only after a credit movement on a global port (see PBDirty) yields
// exactly the same reader-visible flag sequence as calling it every cycle.
func (r *Router) UpdatePBFlags(now int64) {
	if r.pb == nil {
		return
	}
	base := r.Topo.GlobalPortBase()
	rl := r.Topo.LocalIndex(r.ID)
	for k := 0; k < r.Topo.H; k++ {
		op := &r.Out[base+k]
		if op.Kind == topology.PortNone {
			continue
		}
		r.pb.Set(now, rl*r.Topo.H+k, op.dead || op.Occupancy() >= r.pbThreshold)
	}
	r.pbDirty = false
}

// PBDirty reports whether a global output port's occupancy may have changed
// since the last UpdatePBFlags, i.e. whether the router's published PB flags
// could be stale.
func (r *Router) PBDirty() bool { return r.pbDirty }

// --- event-side interface (driven by the network) ---------------------------

// Arrive stores a packet arriving on (port, vc) and updates its header: hop
// counters, per-group flag lifetimes and Valiant-group completion.
func (r *Router) Arrive(port, vc int, p *packet.Packet) {
	inp := &r.In[port]
	buf := &inp.VCs[vc]
	if buf.Len() == 0 && !buf.Draining() {
		r.readyVCs++ // empty → head becomes routable
		inp.ready |= 1 << uint(vc)
		r.readyPorts |= 1 << uint(port)
		r.headChanged |= 1 << uint(port)
	}
	buf.Push(p, r.PktSize)
	if !buf.Escape {
		r.occPhits += r.PktSize
	}
	if buf.Escape {
		p.RingHops++
	} else {
		switch inp.Kind {
		case topology.PortLocal:
			p.LocalHops++
		case topology.PortGlobal:
			p.GlobalHops++
		}
	}
	p.EnterGroup(r.Group)
	p.BlockedSince = -1
}

// FinishDrain completes the transfer of the head packet of (port, vc),
// freeing its buffer space. It returns the packet and the upstream output
// coordinates that must be refunded (upRouter == -1 for injection buffers).
// It never dereferences the packet: every packet is PktSize phits.
func (r *Router) FinishDrain(port, vc int) (p *packet.Packet, upRouter, upPort int) {
	inp := &r.In[port]
	buf := &inp.VCs[vc]
	p = buf.FinishDrain(r.PktSize)
	if buf.Len() > 0 {
		r.readyVCs++ // the queued packet behind the drained head is now routable
		inp.ready |= 1 << uint(vc)
		r.readyPorts |= 1 << uint(port)
		r.headChanged |= 1 << uint(port)
	}
	if !buf.Escape {
		r.occPhits -= r.PktSize
	}
	return p, inp.UpRouter, inp.UpPort
}

// AddCredit refunds credits on an output port (a downstream buffer freed
// space).
func (r *Router) AddCredit(port, vc, phits int) {
	r.Out[port].Refund(vc, phits)
	if r.cacheOn {
		r.dirty |= 1 << uint(port)
	}
	if r.pb != nil && r.Out[port].Kind == topology.PortGlobal {
		r.pbDirty = true
	}
}

// InjectionSpace returns the injection VC of node-slot port `port` with the
// most free space, if any fits a packet of `size` phits.
func (r *Router) InjectionSpace(port, size int) (vc int, ok bool) {
	inp := &r.In[port]
	best, bestFree := -1, -1
	for i := range inp.VCs {
		if f := inp.VCs[i].Free(); f >= size && f > bestFree {
			best, bestFree = i, f
		}
	}
	return best, best >= 0
}

// Inject places a freshly generated packet into injection buffer (port, vc).
func (r *Router) Inject(port, vc int, p *packet.Packet, now int64) {
	p.Injected = now
	inp := &r.In[port]
	buf := &inp.VCs[vc]
	if buf.Len() == 0 && !buf.Draining() {
		r.readyVCs++
		inp.ready |= 1 << uint(vc)
		r.readyPorts |= 1 << uint(port)
		r.headChanged |= 1 << uint(port)
	}
	buf.Push(p, r.PktSize)
	r.occPhits += r.PktSize
}

// HasRoutableWork reports whether any input VC holds a routable head (non-
// empty, not draining). When false, Cycle is a guaranteed no-op — it calls
// no engine, draws no randomness and moves no arbiter state — which is the
// contract that lets the network's activity scheduler skip this router
// without changing results (see TestIdleCycleIsPure).
func (r *Router) HasRoutableWork() bool { return r.readyVCs > 0 }

// RoutableVCs returns the number of input VCs with a routable head (test
// and diagnostics hook for the activity-tracking counter).
func (r *Router) RoutableVCs() int { return r.readyVCs }

// CanonicalOccupancy returns the fraction of this router's canonical input
// buffering that is currently occupied — the congestion signal used by the
// injection throttle.
func (r *Router) CanonicalOccupancy() float64 {
	if r.capPhits == 0 {
		return 0
	}
	return float64(r.occPhits) / float64(r.capPhits)
}

// QueuedPhits returns the total phits stored in this router's input buffers
// (used by drain checks and conservation tests).
func (r *Router) QueuedPhits() int {
	total := 0
	for i := range r.In {
		for vc := range r.In[i].VCs {
			total += r.In[i].VCs[vc].Occupied()
		}
	}
	return total
}

// CheckCredits verifies that every output port's missing credits equal the
// downstream buffer occupancy plus in-flight phits accounted by the caller.
// It is used by integration tests; inFlight maps (router,port,vc) → phits.
func (r *Router) CheckCredits(routers []*Router, inFlight func(router, port, vc int) int) error {
	for po := range r.Out {
		op := &r.Out[po]
		if op.Kind == topology.PortNode || op.Kind == topology.PortNone {
			continue
		}
		if op.dead {
			continue // frozen by a fault; never consulted again
		}
		peer := routers[op.Peer]
		for vc := range op.credits {
			missing := op.vcCap[vc] - op.credits[vc]
			down := peer.In[op.PeerPort].VCs[vc].Occupied()
			fl := inFlight(r.ID, po, vc)
			if missing != down+fl {
				return fmt.Errorf("router %d port %d vc %d: missing=%d downstream=%d inflight=%d",
					r.ID, po, vc, missing, down, fl)
			}
		}
	}
	return nil
}

// StateFingerprint folds every piece of router state that a Cycle call may
// mutate — the private RNG stream, the arbiter LRS memories, buffer contents
// and drain state, port serialization deadlines and the occupancy counters —
// into one FNV-1a hash. Tests compare fingerprints across a Cycle call on an
// idle router to prove the call had no side effects (the contract the
// network's activity scheduler relies on). The request scratch slots and the
// grants slice are deliberately excluded: both are reset at the top of every
// Cycle before being read, so stale contents are unobservable. The route
// cache (per-buffer entries, dirty/pendingDirty masks, nextFree, rngDraws) is
// excluded too:
// it is pure memoization of values recomputable from the fingerprinted state,
// and excluding it is what makes cache-on and cache-off runs — which are
// bit-identical by construction — report identical fingerprints.
func (r *Router) StateFingerprint() uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	mixb := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	for _, s := range r.rng.State() {
		mix(s)
	}
	for i := range r.inArb {
		for _, t := range r.inArb[i].lastServed {
			mix(uint64(t))
		}
		for _, t := range r.outArb[i].lastServed {
			mix(uint64(t))
		}
	}
	mix(uint64(r.occPhits))
	mix(uint64(r.readyVCs))
	mixb(r.pbDirty)
	for i := range r.In {
		inp := &r.In[i]
		mix(uint64(inp.busyUntil))
		for vc := range inp.VCs {
			buf := &inp.VCs[vc]
			mix(uint64(buf.Len()))
			mix(uint64(buf.Occupied()))
			mixb(buf.Draining())
		}
		op := &r.Out[i]
		mix(uint64(op.busyUntil))
		mixb(op.dead)
		for vc := range op.credits {
			mix(uint64(op.credits[vc]))
		}
	}
	return h
}

// --- per-cycle routing + switch allocation -----------------------------------

// Cycle runs routing decisions for all routable buffer heads and performs
// the iterative separable switch allocation, committing the winners. It
// returns the cycle's grants; the returned slice is reused next cycle.
//
// With the route cache enabled, a buffer head whose cached decision is still
// valid (read-set mask disjoint from the cycle's dirty window, expiry not
// reached) skips the engine entirely —
// including the Head() dereference and the BlockedSince stamp: a valid entry
// implies the head is the same packet that was evaluated when the entry was
// created, at which point BlockedSince was already set (it only resets when
// the packet wins allocation and drains, which invalidates the entry).
func (r *Router) Cycle(engine Engine, now int64) []Grant {
	var window uint64 // output ports dirtied since the last formation pass
	if r.cacheOn {
		if now >= r.nextFree {
			// One or more output ports crossed busy→free since the last scan;
			// mark them dirty (cached decisions that saw them busy are stale)
			// and find the next future transition. Commits keep nextFree a
			// lower bound on unexpired deadlines and outBusy a superset of
			// the busy ports, so no transition is ever missed.
			newNext := int64(math.MaxInt64)
			for m := r.outBusy; m != 0; m &= m - 1 {
				o := bits.TrailingZeros64(m)
				if bu := r.Out[o].busyUntil; bu > now {
					if bu < newNext {
						newNext = bu
					}
				} else {
					r.dirty |= 1 << uint(o)
					r.outBusy &^= 1 << uint(o)
				}
			}
			r.nextFree = newNext
		}
		window = r.dirty
		r.dirty = 0
	}
	r.grants = r.grants[:0]
	var ce CacheableEngine
	if r.cacheOn {
		ce = engine.(CacheableEngine)
	}
	if r.readyVCs > 2 {
		// Head-prefetch pass: touch the head packet of every ready VC that the
		// main loop below will actually dereference (same skip predicates,
		// evaluated read-only — pendingDirty is peeked, not consumed). The
		// main loop's head loads are dependent chains (port → buffer → q →
		// packet) into pool-recycled packets scattered across the heap, and at
		// saturation they are the single largest stall in the simulator; the
		// touches here are independent loads the CPU can overlap, so the main
		// loop re-walks warm cache lines. Reads only — decisions, RNG streams
		// and all digests are untouched; the sink write defeats dead-code
		// elimination.
		sink := int64(0)
		for pm := r.readyPorts; pm != 0; pm &= pm - 1 {
			ip := bits.TrailingZeros64(pm)
			inp := &r.In[ip]
			if inp.Busy(now) {
				continue
			}
			// The allocator reads this port's input-arbiter timestamps
			// whether its requests are routed fresh or replayed; touch the
			// row now so the LRS scans walk a warm line.
			if arb := r.inArb[ip].lastServed; len(arb) > 0 {
				sink += arb[0]
			}
			if r.cacheOn {
				d := window | r.pendingDirty[ip]
				fbit := uint64(1) << uint(ip)
				if r.formed&fbit != 0 && r.headChanged&fbit == 0 &&
					r.portDep[ip]&d == 0 && now < r.portExp[ip] {
					continue
				}
				for m := inp.ready; m != 0; m &= m - 1 {
					vc := bits.TrailingZeros64(m)
					buf := &inp.VCs[vc]
					if buf.cValid && now < buf.cExpire && buf.cMask&d == 0 {
						continue
					}
					sink += buf.q[buf.head].BlockedSince
					if buf.cMin >= 0 {
						// The engine's first read is the head's minimal output
						// (occupancy, busy state, credits); its header line is
						// another independent load worth overlapping.
						sink += int64(r.Out[buf.cMin].canCredits)
					}
				}
			} else {
				for m := inp.ready; m != 0; m &= m - 1 {
					vc := bits.TrailingZeros64(m)
					buf := &inp.VCs[vc]
					sink += buf.q[buf.head].BlockedSince
					if buf.cMin >= 0 {
						sink += int64(r.Out[buf.cMin].canCredits)
					}
				}
			}
		}
		r.prefetchSink = sink
	}
	var inPend uint64 // input ports with pending (unmatched) requests
	for pm := r.readyPorts; pm != 0; pm &= pm - 1 {
		ip := bits.TrailingZeros64(pm)
		inp := &r.In[ip]
		if inp.Busy(now) {
			if r.cacheOn {
				// This port's live entries miss the current window; bank it
				// so their next validation sees every skipped invalidation.
				r.pendingDirty[ip] |= window
			}
			continue
		}
		d := window
		fbit := uint64(1) << uint(ip)
		if r.cacheOn {
			if r.pendingDirty[ip] != 0 {
				d |= r.pendingDirty[ip]
				r.pendingDirty[ip] = 0
			}
			if r.formed&fbit != 0 && r.headChanged&fbit == 0 &&
				r.portDep[ip]&d == 0 && now < r.portExp[ip] {
				// Whole-port replay: every ready VC would hit with the same
				// outcome, so the stored request mask is the loop's result.
				if m := r.portReqM[ip]; m != 0 {
					r.reqMask[ip] = m
					inPend |= fbit
				}
				continue
			}
			r.headChanged &^= fbit
		}
		base := int(r.vcBase[ip])
		var reqM, depOr uint64
		minExp := int64(math.MaxInt64)
		cacheable := r.cacheOn
		for m := inp.ready; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			buf := &inp.VCs[vc]
			if r.cacheOn && buf.cValid && now < buf.cExpire && buf.cMask&d == 0 {
				if buf.cOK { // replay: the reqs slot still holds the request
					reqM |= 1 << uint(vc)
				}
				depOr |= buf.cMask
				if buf.cExpire < minExp {
					minExp = buf.cExpire
				}
				continue
			}
			p := buf.Head()
			if p.BlockedSince < 0 {
				p.BlockedSince = now
			}
			in := InCtx{
				Port: ip, VC: vc, Kind: inp.Kind,
				Escape: buf.Escape, Ring: int(buf.Ring),
				MinHint: buf.cMin,
			}
			rngBefore := r.rngDraws
			req, ok := engine.Route(r, in, p, now)
			if r.cacheOn {
				mask, expire, minPort := ce.RouteDeps(r, in, p, now)
				buf.cMin = minPort // per-head anchor; survives invalidation
				if r.rngDraws == rngBefore {
					buf.cMask = mask
					buf.cExpire = expire
					buf.cOK = ok
					buf.cValid = true
					depOr |= mask
					if expire < minExp {
						minExp = expire
					}
				} else {
					// The decision consumed randomness; replaying it would
					// skip the draws and desynchronize the RNG stream.
					buf.cValid = false
					cacheable = false
				}
			}
			if ok {
				r.reqs[base+vc] = req
				reqM |= 1 << uint(vc)
			}
		}
		if cacheable {
			r.formed |= fbit
			r.portDep[ip] = depOr
			r.portExp[ip] = minExp
			r.portReqM[ip] = reqM
		} else {
			r.formed &^= fbit
		}
		if reqM != 0 {
			r.reqMask[ip] = reqM
			inPend |= 1 << uint(ip)
		}
	}
	if inPend == 0 {
		return r.grants
	}

	// outAvail starts as the non-busy outputs and loses each granted port,
	// which is exactly the old matchedOut ∪ Busy skip set: port busy state
	// only changes mid-cycle through grants. Under cacheOn the expiry scan
	// above has made outBusy exact for this cycle, so the rebuild is a
	// complement.
	var outAvail uint64
	if r.cacheOn {
		outAvail = ^r.outBusy & r.allOut
	} else {
		for op := range r.Out {
			if !r.Out[op].Busy(now) {
				outAvail |= 1 << uint(op)
			}
		}
	}
	for iter := 0; iter < r.AllocIters; iter++ {
		// Input arbitration: each unmatched input port nominates its
		// least-recently-served VC whose requested output is still free.
		r.touchedOut = r.touchedOut[:0]
		progress := false
		for pm := inPend; pm != 0; pm &= pm - 1 {
			ip := bits.TrailingZeros64(pm)
			base := int(r.vcBase[ip])
			arb := r.inArb[ip].lastServed
			best := -1
			var bestT int64
			for vm := r.reqMask[ip]; vm != 0; vm &= vm - 1 {
				vc := bits.TrailingZeros64(vm)
				if outAvail&(1<<uint(r.reqs[base+vc].Out)) == 0 {
					continue
				}
				if best == -1 || arb[vc] < bestT {
					best, bestT = vc, arb[vc]
				}
			}
			if best < 0 {
				continue
			}
			out := r.reqs[base+best].Out
			r.candVC[ip] = int32(best)
			if r.outCandMask[out] == 0 {
				r.touchedOut = append(r.touchedOut, int32(out))
			}
			r.outCandMask[out] |= 1 << uint(ip)
			progress = true
		}
		if !progress {
			break
		}
		// Output arbitration: each free output grants its least-recently-
		// served requesting input. touchedOut preserves first-touch order
		// (== the old candidate-list creation order), and ascending-bit
		// iteration of the candidate mask matches the old append order, so
		// grants commit in the exact same sequence.
		granted := false
		for _, out32 := range r.touchedOut {
			op := int(out32)
			cm := r.outCandMask[op]
			r.outCandMask[op] = 0
			if outAvail&(1<<uint(op)) == 0 {
				continue
			}
			arb := r.outArb[op].lastServed
			best := -1
			var bestT int64
			for ; cm != 0; cm &= cm - 1 {
				ip := bits.TrailingZeros64(cm)
				if arb[ip] < bestT || best == -1 {
					best, bestT = ip, arb[ip]
				}
			}
			if best < 0 {
				continue
			}
			vc := int(r.candVC[best])
			inPend &^= 1 << uint(best)
			outAvail &^= 1 << uint(op)
			r.inArb[best].Grant(vc, now)
			r.outArb[op].Grant(best, now)
			r.commit(best, vc, r.reqs[int(r.vcBase[best])+vc], now)
			granted = true
		}
		if !granted {
			break
		}
	}
	return r.grants
}

// commit applies one allocation winner: the buffer starts draining, ports
// serialize for the packet duration, credits are consumed, and the request's
// header side effects are applied.
func (r *Router) commit(ip, vc int, req Request, now int64) {
	inp := &r.In[ip]
	buf := &inp.VCs[vc]
	p := buf.Head()
	buf.BeginDrain()
	r.readyVCs-- // the head drains; anything queued behind it must wait
	inp.ready &^= 1 << uint(vc)
	if inp.ready == 0 {
		r.readyPorts &^= 1 << uint(ip)
	}
	size := int64(r.PktSize)
	inp.busyUntil = now + size
	out := &r.Out[req.Out]
	out.busyUntil = now + size
	if r.cacheOn {
		// Credits and/or busy status of the output changed (ejection still
		// goes busy), and the port will cross back to free at now+size.
		r.dirty |= 1 << uint(req.Out)
		r.outBusy |= 1 << uint(req.Out)
		if bu := now + size; bu < r.nextFree {
			r.nextFree = bu
		}
	}
	eject := out.Kind == topology.PortNode
	if !eject {
		out.Take(req.VC, r.PktSize)
		if r.pb != nil && out.Kind == topology.PortGlobal {
			r.pbDirty = true
		}
	}
	if req.SetGlobalMis {
		p.GlobalMisrouted = true
	}
	if req.SetLocalMis {
		p.LocalMisrouted = true
		p.MisrouteGroup = int16(r.Group)
	}
	if req.EnterRing {
		p.OnRing = true
		p.Ring = req.Ring
	}
	if req.ExitRing {
		p.OnRing = false
		p.Ring = -1
		p.RingExits++
	}
	p.BlockedSince = -1
	r.grants = append(r.grants, Grant{InPort: ip, InVC: vc, Req: req, Pkt: p, Eject: eject})
}
