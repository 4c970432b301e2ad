// Package router implements the microarchitecture of the simulated
// input-buffered virtual cut-through router used throughout the paper's
// evaluation (§V): per-VC input FIFOs with phit-granularity occupancy,
// credit-based flow control, an iterative separable batch allocator with
// least-recently-served arbiters, and the escape-channel bookkeeping needed
// by OFAR's deadlock-free subnetwork.
//
// The package also defines the Engine interface that routing mechanisms
// (MIN, VAL, PB, UGAL, OFAR) implement; engines receive the concrete
// *Router so the per-cycle hot path stays monomorphic.
package router

import (
	"ofar/internal/packet"
)

// VCBuffer is one virtual-channel FIFO of an input port. Occupancy is
// tracked in phits; every packet is the network's packet size, which the
// owning router passes to Push, DropQueued and FinishDrain, so the buffer
// never dereferences a packet. The packet at the head may additionally be
// "draining" (it won switch allocation and its phits are streaming out),
// during which it is not eligible for routing.
type VCBuffer struct {
	// Escape marks the buffer as part of the escape subnetwork (a ring
	// port's VC or an embedded escape VC); Ring identifies which ring
	// (-1 for canonical buffers).
	Escape bool
	Ring   int8

	Capacity int // phits

	q        []*packet.Packet
	head     int // index of the logical head within q
	occupied int // phits
	draining bool

	// Route-cache entry for the current head packet (see Router.Cycle).
	// Valid while cValid is set AND now < cExpire AND cMask (the decision's
	// output-port read set) is disjoint from the dirty window the router
	// presents at validation time. The cached Request itself lives in the
	// router's reqs slot for this buffer (only a re-evaluation of this
	// buffer overwrites it). cMin caches the engine's per-head anchor port
	// (InCtx.MinHint) and survives dirty invalidation: it depends only on
	// the head's identity, so only head replacement resets it.
	cMask   uint64
	cExpire int64
	cMin    int32
	cOK     bool // the cached outcome: Route returned (request, true)
	cValid  bool
}

// invalidateCache forgets the route-cache entry and the per-head anchor
// hint. Called whenever the head packet changes identity.
func (b *VCBuffer) invalidateCache() {
	b.cValid = false
	b.cMin = -1
}

// Init sets the buffer capacity (phits). ring < 0 marks a canonical buffer.
func (b *VCBuffer) Init(capacity int, ring int) {
	b.Capacity = capacity
	b.Escape = ring >= 0
	b.Ring = int8(ring)
	b.q = b.q[:0]
	b.head = 0
	b.occupied = 0
	b.draining = false
	b.invalidateCache()
}

// Len returns the number of queued packets.
func (b *VCBuffer) Len() int { return len(b.q) - b.head }

// Occupied returns the occupied phits.
func (b *VCBuffer) Occupied() int { return b.occupied }

// Free returns the free phits.
func (b *VCBuffer) Free() int { return b.Capacity - b.occupied }

// Head returns the head packet, or nil. The head is not routable while the
// buffer is draining a previous grant.
func (b *VCBuffer) Head() *packet.Packet {
	if b.Len() == 0 {
		return nil
	}
	return b.q[b.head]
}

// Draining reports whether the head packet is currently streaming out.
func (b *VCBuffer) Draining() bool { return b.draining }

// Push appends a packet of size phits. The caller must have verified space;
// credit-based flow control guarantees it for network traffic, and sources
// check Free before injecting. Push panics on overflow because an overflow
// means a credit-accounting bug, not a runtime condition.
func (b *VCBuffer) Push(p *packet.Packet, size int) {
	if size > b.Free() {
		panic("router: VC buffer overflow (credit accounting bug)")
	}
	if b.Len() == 0 {
		b.invalidateCache() // the pushed packet becomes the head
	}
	b.q = append(b.q, p)
	b.occupied += size
}

// DropQueued removes every queued packet (each of size phits) except a
// draining head (whose phits are already committed to the crossbar and must
// finish via FinishDrain), calling visit for each removed packet. Used when
// a router fails: its buffered traffic is lost and must be accounted
// explicitly.
func (b *VCBuffer) DropQueued(size int, visit func(*packet.Packet)) {
	if b.Len() == 0 {
		return
	}
	b.invalidateCache()
	start := b.head
	if b.draining {
		start++ // the in-flight head survives until its FinishDrain
	}
	for i := start; i < len(b.q); i++ {
		p := b.q[i]
		b.occupied -= size
		b.q[i] = nil
		visit(p)
	}
	b.q = b.q[:start]
	if start == b.head && b.head > 0 {
		b.q = b.q[:0]
		b.head = 0
	}
}

// BeginDrain marks the head as granted; it stays at the head (consuming
// space) until FinishDrain.
func (b *VCBuffer) BeginDrain() {
	if b.Len() == 0 || b.draining {
		panic("router: BeginDrain on empty or draining buffer")
	}
	b.draining = true
}

// FinishDrain removes the head packet and frees its size phits.
func (b *VCBuffer) FinishDrain(size int) *packet.Packet {
	if !b.draining {
		panic("router: FinishDrain without BeginDrain")
	}
	p := b.q[b.head]
	b.q[b.head] = nil
	b.head++
	if b.head == len(b.q) { // reset slice to reuse storage
		b.q = b.q[:0]
		b.head = 0
	} else if b.head > 32 && b.head*2 >= len(b.q) {
		n := copy(b.q, b.q[b.head:])
		for i := n; i < len(b.q); i++ {
			b.q[i] = nil
		}
		b.q = b.q[:n]
		b.head = 0
	}
	b.occupied -= size
	b.draining = false
	b.invalidateCache() // whatever queued behind p is the new head
	return p
}
