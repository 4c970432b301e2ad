package router

import (
	"testing"
	"testing/quick"

	"ofar/internal/packet"
)

func TestVCBufferBasics(t *testing.T) {
	var pool packet.Pool
	var b VCBuffer
	b.Init(32, -1)
	if b.Escape || b.Ring != -1 {
		t.Error("canonical buffer flagged as escape")
	}
	if b.Len() != 0 || b.Occupied() != 0 || b.Free() != 32 || b.Head() != nil {
		t.Error("fresh buffer not empty")
	}
	p1 := pool.Get()
	p2 := pool.Get()
	b.Push(p1, 8)
	b.Push(p2, 8)
	if b.Len() != 2 || b.Occupied() != 16 || b.Free() != 16 {
		t.Errorf("len=%d occ=%d free=%d", b.Len(), b.Occupied(), b.Free())
	}
	if b.Head() != p1 {
		t.Error("head is not FIFO order")
	}
	b.BeginDrain()
	if !b.Draining() {
		t.Error("not draining")
	}
	if got := b.FinishDrain(8); got != p1 {
		t.Error("drained wrong packet")
	}
	if b.Draining() || b.Len() != 1 || b.Occupied() != 8 {
		t.Error("drain bookkeeping wrong")
	}
	if b.Head() != p2 {
		t.Error("head after drain")
	}
}

func TestVCBufferEscapeTag(t *testing.T) {
	var b VCBuffer
	b.Init(32, 2)
	if !b.Escape || b.Ring != 2 {
		t.Errorf("escape=%v ring=%d", b.Escape, b.Ring)
	}
}

func TestVCBufferOverflowPanics(t *testing.T) {
	var pool packet.Pool
	var b VCBuffer
	b.Init(8, -1)
	b.Push(pool.Get(), 8)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	b.Push(pool.Get(), 8)
}

func TestVCBufferDrainPanics(t *testing.T) {
	var b VCBuffer
	b.Init(8, -1)
	if didPanic(func() { b.BeginDrain() }) == false {
		t.Error("BeginDrain on empty buffer must panic")
	}
	if didPanic(func() { b.FinishDrain(8) }) == false {
		t.Error("FinishDrain without BeginDrain must panic")
	}
}

func didPanic(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

// TestVCBufferFIFOQuick pushes/drains randomly and checks FIFO order and
// occupancy accounting.
func TestVCBufferFIFOQuick(t *testing.T) {
	f := func(ops []bool) bool {
		var pool packet.Pool
		var b VCBuffer
		b.Init(1<<20, -1)
		var expect []*packet.Packet
		for _, push := range ops {
			if push {
				p := pool.Get()
				b.Push(p, 4)
				expect = append(expect, p)
			} else if len(expect) > 0 {
				b.BeginDrain()
				got := b.FinishDrain(4)
				if got != expect[0] {
					return false
				}
				expect = expect[1:]
			}
			if b.Len() != len(expect) || b.Occupied() != 4*len(expect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVCBufferCompaction(t *testing.T) {
	var pool packet.Pool
	var b VCBuffer
	b.Init(1<<20, -1)
	// Interleave enough pushes and drains to force the head-compaction path.
	var live []*packet.Packet
	for i := 0; i < 500; i++ {
		p := pool.Get()
		b.Push(p, 2)
		live = append(live, p)
		if i%3 != 0 {
			b.BeginDrain()
			if got := b.FinishDrain(2); got != live[0] {
				t.Fatalf("iteration %d: wrong packet", i)
			}
			live = live[1:]
		}
	}
	for len(live) > 0 {
		b.BeginDrain()
		if got := b.FinishDrain(2); got != live[0] {
			t.Fatal("tail drain order broken")
		}
		live = live[1:]
	}
	if b.Len() != 0 || b.Occupied() != 0 {
		t.Error("buffer not empty after full drain")
	}
}

func TestLRSFairness(t *testing.T) {
	var a LRS
	a.InitLRS(3)
	all := func(int) bool { return true }
	order := []int{}
	now := int64(0)
	for i := 0; i < 6; i++ {
		pick := a.Pick(all)
		a.Grant(pick, now)
		now++
		order = append(order, pick)
	}
	// Round-robin-like rotation: each requester served twice in 6 grants.
	counts := map[int]int{}
	for _, x := range order {
		counts[x]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] != 2 {
			t.Fatalf("requester %d served %d times in %v", i, counts[i], order)
		}
	}
}

func TestLRSEligibility(t *testing.T) {
	var a LRS
	a.InitLRS(4)
	if got := a.Pick(func(i int) bool { return i == 2 }); got != 2 {
		t.Errorf("pick=%d", got)
	}
	if got := a.Pick(func(int) bool { return false }); got != -1 {
		t.Errorf("pick on empty=%d", got)
	}
	// After serving 0 and 1, the least recently served eligible of {0,1} is 0.
	a.Grant(0, 10)
	a.Grant(1, 11)
	if got := a.Pick(func(i int) bool { return i < 2 }); got != 0 {
		t.Errorf("LRS pick=%d want 0", got)
	}
}

func TestFlagBoardDelay(t *testing.T) {
	fb := NewFlagBoard(4, 3)
	fb.Set(0, 1, true)
	for now := int64(0); now < 3; now++ {
		if fb.Get(now, 1) {
			t.Fatalf("flag visible at %d before delay", now)
		}
		// Owners republish every cycle.
		fb.Set(now+1, 1, true)
	}
	if !fb.Get(3, 1) {
		t.Error("flag not visible after delay")
	}
	if fb.Get(3, 0) {
		t.Error("unset flag visible")
	}
}

func TestFlagBoardZeroDelay(t *testing.T) {
	fb := NewFlagBoard(2, 0)
	fb.Set(5, 0, true)
	if !fb.Get(5, 0) {
		t.Error("zero-delay flag not immediately visible")
	}
}

func TestOutPortCredits(t *testing.T) {
	var op OutPort
	op.initOut(nil, []int{16, 16, 8}, []int8{-1, -1, 0})
	if op.NumVCs() != 3 {
		t.Fatal("vc count")
	}
	if op.Occupancy() != 0 {
		t.Error("fresh occupancy nonzero")
	}
	op.Take(0, 8)
	// Canonical capacity is 32 (escape VC excluded): 8/32 occupied.
	if got := op.Occupancy(); got != 0.25 {
		t.Errorf("occupancy=%f", got)
	}
	op.Take(2, 8) // escape VC does not affect canonical occupancy
	if got := op.Occupancy(); got != 0.25 {
		t.Errorf("occupancy after escape take=%f", got)
	}
	op.Refund(0, 8)
	op.Refund(2, 8)
	if op.Occupancy() != 0 || op.Credits(0) != 16 || op.Credits(2) != 8 {
		t.Error("refund bookkeeping")
	}
	if !didPanic(func() { op.Take(0, 17) }) {
		t.Error("credit underflow must panic")
	}
	if !didPanic(func() { op.Refund(1, 1) }) {
		t.Error("credit overflow must panic")
	}
}

func TestBestVCSelection(t *testing.T) {
	var op OutPort
	op.initOut(nil, []int{16, 16, 8}, []int8{-1, -1, 1})
	op.Take(0, 12)
	vc, ok := op.bestCanonicalVC(8)
	if !ok || vc != 1 {
		t.Errorf("bestCanonicalVC=%d,%v", vc, ok)
	}
	evc, ok := op.bestEscapeVC(1)
	if !ok || evc != 2 {
		t.Errorf("bestEscapeVC=%d,%v", evc, ok)
	}
	if _, ok := op.bestEscapeVC(0); ok {
		t.Error("found escape VC for wrong ring")
	}
	op.Take(1, 16)
	op.Take(0, 4) // vc0 empty of credits now (16-12-4)
	if _, ok := op.bestCanonicalVC(8); ok {
		t.Error("bestCanonicalVC with no credits")
	}
}
