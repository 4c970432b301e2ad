// Package packet defines the unit of information exchanged through the
// simulated network: fixed-size virtual cut-through packets, their routing
// header state, and a free-list pool that keeps allocation pressure off the
// simulation hot loop.
//
// The simulator works at packet granularity for buffering decisions and at
// phit granularity for bandwidth accounting: every packet has the network's
// configured size of PacketSize phits and needs PacketSize cycles to cross a
// link or a crossbar port.
package packet

import "math"

// ID uniquely identifies a packet within one simulation run.
type ID uint64

// Limits of the compact header. Configurations beyond them are refused up
// front (network.Config.Validate, traffic.NewJobSet) instead of being
// silently truncated into the narrow fields.
const (
	MaxGroups   = math.MaxInt16 // group indices are int16
	MaxNodes    = math.MaxInt32 // node indices are int32
	MaxJobSlots = math.MaxInt16 // job slots are int16
	// MaxRingExits bounds the OFAR ring-exit budget: the exit counter is a
	// uint8 that never exceeds the budget, and one value stays spare.
	MaxRingExits = math.MaxUint8 - 1
)

// Packet is a network packet. All fields are managed by the simulator; user
// code observes packets only through statistics.
//
// A packet is exactly one 64-byte cache line (TestPacketLayout pins it),
// and the pool carves packets in line-aligned blocks, so every header read
// touches one line. That is why the fields are narrow: group indices, the
// local and global hop classes and the job slot fit int16, node indices and
// ring hops int32, ring exits uint8; configurations whose values would not
// fit are refused (see the Max* limits). Every packet has the configured
// packet size (Router.PktSize), so the size is not stored, and the total
// hop count is derived (TotalHops).
//
// Field order is deliberate: the leading fields are the routing engine's
// per-cycle read set (consulted for every blocked buffer head at
// saturation); the trailing fields are written once per hop or once per
// lifetime. The order is free to change: the snapshot encoder
// (network.encodePacket) serializes fields by name, not by layout.
type Packet struct {
	// BlockedSince is the cycle at which the packet most recently became
	// head of an input buffer without being able to advance; < 0 when the
	// packet is not blocked. Drives the escape-ring timeout.
	BlockedSince int64

	Dst int32 // destination node index
	Src int32 // source node index

	SrcGroup int16 // group of the source node (cached)
	DstGroup int16 // group of the destination node (cached)

	// ValiantGroup is the intermediate group chosen at injection time by
	// source-adaptive mechanisms (VAL, PB, UGAL). It is < 0 when no
	// intermediate group has been assigned, and it is cleared (set to -1)
	// once the packet reaches the intermediate group, at which point the
	// packet proceeds minimally.
	ValiantGroup int16

	// MisrouteGroup remembers the group in which LocalMisrouted was set so
	// the flag can be reset when the packet changes group.
	MisrouteGroup int16

	// Hop class counters used for deadlock-free VC selection by the
	// baseline mechanisms (ascending VC order).
	LocalHops  int16 // local hops taken so far
	GlobalHops int16 // global hops taken so far

	// Misroute header flags used by OFAR (paper §IV-A).
	GlobalMisrouted bool // at most one global non-minimal hop per packet
	LocalMisrouted  bool // at most one local non-minimal hop per group

	// Escape subnetwork state (hot part: read by every OFAR Route call).
	OnRing    bool  // currently stored in an escape-ring buffer
	Ring      int8  // index of the escape ring the packet rides (-1 off-ring)
	RingExits uint8 // times the packet has left the escape ring

	// --- cold fields: written per hop or per lifetime, never read by Route ---

	// Job is the source job slot under a job-aware workload, -1 otherwise.
	// Read only at the packet's terminal event (delivery or drop) to credit
	// the right per-job statistics bucket.
	Job int16

	RingHops int32 // hops taken on the escape ring

	ID ID

	// Timestamps (in cycles).
	Born     int64 // generation time at the source node
	Injected int64 // time the packet entered the injection buffer
}

// TotalHops is the number of links the packet has crossed: every arrival
// increments exactly one of the local, global and ring hop classes.
func (p *Packet) TotalHops() int {
	return int(p.LocalHops) + int(p.GlobalHops) + int(p.RingHops)
}

// Reset clears a packet for reuse from the pool.
func (p *Packet) Reset() {
	*p = Packet{ValiantGroup: -1, MisrouteGroup: -1, BlockedSince: -1, Ring: -1, Job: -1}
}

// EnterGroup updates per-group header state when the packet arrives at a
// router of group g: the local-misroute flag is per group, and a packet that
// reaches its Valiant intermediate group reverts to minimal routing.
func (p *Packet) EnterGroup(g int) {
	if p.LocalMisrouted && int(p.MisrouteGroup) != g {
		p.LocalMisrouted = false
		p.MisrouteGroup = -1
	}
	if int(p.ValiantGroup) == g {
		p.ValiantGroup = -1
	}
}

// Pool is a free list of packets. It is not safe for concurrent use; the
// simulator is single-threaded by design (single-cycle simulation), and
// parallel experiments each own a private pool.
//
// Fresh packets are carved from block allocations rather than individual
// `new(Packet)` calls: packets born together tend to travel together (a
// saturation wave admits thousands of packets in a few cycles), so block
// carving keeps the packets a router dereferences in one cycle on far fewer
// cache lines and TLB pages than the allocator's default scattering, and it
// cuts allocator metadata per packet to zero. Recycled packets keep their
// original block homes — the free list preserves locality instead of
// fighting it.
type Pool struct {
	free  []*Packet
	block []Packet // current carve block; grows in poolBlock-sized steps
	next  ID
}

// poolBlock is the carve-block size in packets (32 KiB of 64-byte packets):
// large enough that a saturation wave spans a handful of mappings, small
// enough that a low-load run wastes at most one block's tail. A 32 KiB
// block is a whole size class of the Go allocator, page-aligned, so every
// packet carved from it starts on a cache-line boundary.
const poolBlock = 512

// Get returns a zeroed packet with a fresh ID.
func (pl *Pool) Get() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free = pl.free[:n-1]
	} else {
		if len(pl.block) == 0 {
			pl.block = make([]Packet, poolBlock)
		}
		p = &pl.block[0]
		pl.block = pl.block[1:]
	}
	p.Reset()
	pl.next++
	p.ID = pl.next
	return p
}

// GetBlank returns a zeroed packet WITHOUT assigning an ID (p.ID stays 0).
// The sharded injection front-end uses per-group pools for memory locality
// but a single run-wide ID sequence for determinism: group shards call
// GetBlank concurrently on their own pools, and the commit barrier stamps IDs
// in (group, node) order via NextID on the shared pool. Callers must stamp an
// ID before the packet becomes observable (traces, snapshots, stats).
func (pl *Pool) GetBlank() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free = pl.free[:n-1]
	} else {
		if len(pl.block) == 0 {
			pl.block = make([]Packet, poolBlock)
		}
		p = &pl.block[0]
		pl.block = pl.block[1:]
	}
	p.Reset()
	return p
}

// NextID advances the run-wide ID sequence and returns the fresh ID. Pairs
// with GetBlank; Get is equivalent to GetBlank + NextID on one pool.
func (pl *Pool) NextID() ID {
	pl.next++
	return pl.next
}

// Put returns a packet to the pool. The caller must not retain references.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.free = append(pl.free, p)
}

// Outstanding reports how many IDs have been handed out in total. Useful in
// conservation tests.
func (pl *Pool) Outstanding() uint64 { return uint64(pl.next) }

// SetOutstanding restores the ID counter after a snapshot restore, so packets
// generated from here on continue the original ID sequence (IDs are unique
// for the lifetime of a run; traces and snapshot dedup rely on that).
func (pl *Pool) SetOutstanding(n uint64) { pl.next = ID(n) }
