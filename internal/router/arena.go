package router

import "ofar/internal/packet"

// Arena is a typed bump allocator for router hot state. The network builds
// one arena per dragonfly group and constructs the group's routers into it
// (NewGroup), so every slice the per-cycle loops touch — VC buffer entries
// (including their route-cache fields), credit counters, arbiter timestamps,
// request slots, ready/dirty masks, queue backing arrays — lands in one
// contiguous slab per type owned by that group instead of hundreds of
// individually heap-allocated slices scattered by the allocator.
//
// The layout is struct-of-arrays at the group level: all VCBuffer entries of
// a group share one slab (allocated router-major, port-major, so the
// iteration order of Cycle and handle is a forward walk), all credit arrays
// share another, and so on per type. A group's working set is therefore
// cache- and TLB-dense, which is what makes the group the natural shard unit
// for the sharded Step (see network.Config.ShardByGroup) and measurably
// faster even for the serial engine at h=6 scale.
//
// Each slab is allocated once at exactly the group's total for its type. The
// totals come from a sizing arena (NewSizer): running the constructors
// against it counts every request while carving the slices from a scratch
// buffer reused across groups, so the count is derived from the very code
// that later carves the real slabs and the two cannot drift. Carve then
// allocates the exact slabs.
//
// Allocation is append-only: routers never free, and fault surgery only
// rewrites in place. A request past the end of a slab is served by plain
// make and counted (see Slack); exact sizing makes that unreachable for
// routers built by NewGroup. A nil *Arena is valid everywhere and falls back
// to plain make, so tests constructing bare routers need no arena.
type Arena struct {
	sizing  bool
	spilled int

	ints slab[int]
	i8   slab[int8]
	i32  slab[int32]
	i64  slab[int64]
	u64  slab[uint64]
	vcs  slab[VCBuffer]
	reqs slab[Request]
	lrs  slab[LRS]
	inP  slab[InPort]
	outP slab[OutPort]
	pkts slab[*packet.Packet]
}

// NewSizer returns a sizing arena: it hands out scratch slices and counts
// what a group requests, per type, until Carve turns the counts into a real
// arena. One sizer is reused for every group of a network.
func NewSizer() *Arena { return &Arena{sizing: true} }

// slab is one type's bump region: buf[:off] is carved, buf[off:] is free.
// In a sizing arena buf is scratch and off the running count.
type slab[T any] struct {
	buf []T
	off int
}

// carve returns a capacity-capped slice of n elements (so a stray append can
// never clobber a neighbor: growth beyond the cap reallocates onto the heap,
// which is correct, just off-arena).
func carve[T any](a *Arena, s *slab[T], n int) []T {
	if n <= 0 {
		return nil
	}
	end := s.off + n
	if end > len(s.buf) {
		if !a.sizing {
			a.spilled += n
			return make([]T, n)
		}
		// Scratch grows geometrically within the first group and is then
		// reused; its contents are never read back.
		s.buf = make([]T, 2*end)
	}
	out := s.buf[s.off:end:end]
	s.off = end
	return out
}

// exact allocates a slab holding exactly what the sizing pass counted and
// rewinds the count (the scratch is kept for the next group).
func (s *slab[T]) exact() slab[T] {
	out := slab[T]{buf: make([]T, s.off)}
	s.off = 0
	return out
}

// Carve returns a real arena whose slabs hold exactly the elements counted
// since the sizer's previous Carve, and rewinds the sizer for the next group.
func (a *Arena) Carve() *Arena {
	return &Arena{
		ints: a.ints.exact(),
		i8:   a.i8.exact(),
		i32:  a.i32.exact(),
		i64:  a.i64.exact(),
		u64:  a.u64.exact(),
		vcs:  a.vcs.exact(),
		reqs: a.reqs.exact(),
		lrs:  a.lrs.exact(),
		inP:  a.inP.exact(),
		outP: a.outP.exact(),
		pkts: a.pkts.exact(),
	}
}

// Slack reports the elements left uncarved at the slabs' tails and the
// elements served off-arena because a slab ran out. An exactly sized arena
// whose routers are fully built reports (0, 0).
func (a *Arena) Slack() (unused, spilled int) {
	unused = tail(&a.ints) + tail(&a.i8) + tail(&a.i32) + tail(&a.i64) +
		tail(&a.u64) + tail(&a.vcs) + tail(&a.reqs) + tail(&a.lrs) +
		tail(&a.inP) + tail(&a.outP) + tail(&a.pkts)
	return unused, a.spilled
}

func tail[T any](s *slab[T]) int { return len(s.buf) - s.off }

func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return carve(a, &a.ints, n)
}

func (a *Arena) Int8s(n int) []int8 {
	if a == nil {
		return make([]int8, n)
	}
	return carve(a, &a.i8, n)
}

func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return carve(a, &a.i32, n)
}

func (a *Arena) Int64s(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	return carve(a, &a.i64, n)
}

func (a *Arena) Uint64s(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return carve(a, &a.u64, n)
}

func (a *Arena) VCBuffers(n int) []VCBuffer {
	if a == nil {
		return make([]VCBuffer, n)
	}
	return carve(a, &a.vcs, n)
}

func (a *Arena) Requests(n int) []Request {
	if a == nil {
		return make([]Request, n)
	}
	return carve(a, &a.reqs, n)
}

func (a *Arena) LRSs(n int) []LRS {
	if a == nil {
		return make([]LRS, n)
	}
	return carve(a, &a.lrs, n)
}

func (a *Arena) InPorts(n int) []InPort {
	if a == nil {
		return make([]InPort, n)
	}
	return carve(a, &a.inP, n)
}

func (a *Arena) OutPorts(n int) []OutPort {
	if a == nil {
		return make([]OutPort, n)
	}
	return carve(a, &a.outP, n)
}

// PacketSlots carves a zero-length, capacity-n queue backing array.
func (a *Arena) PacketSlots(n int) []*packet.Packet {
	if a == nil {
		return make([]*packet.Packet, 0, n)
	}
	return carve(a, &a.pkts, n)[:0]
}
