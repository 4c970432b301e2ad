package packet

import (
	"testing"
	"testing/quick"
)

func TestPoolReusesAndResets(t *testing.T) {
	var pool Pool
	p := pool.Get()
	id1 := p.ID
	p.Src, p.Dst = 5, 9
	p.GlobalMisrouted = true
	p.OnRing = true
	p.Ring = 2
	pool.Put(p)
	q := pool.Get()
	if q != p {
		t.Error("pool did not reuse the freed packet")
	}
	if q.ID == id1 {
		t.Error("reused packet kept its old ID")
	}
	if q.GlobalMisrouted || q.OnRing || q.Ring != -1 || q.Src != 0 {
		t.Error("reused packet not reset")
	}
	if q.ValiantGroup != -1 || q.MisrouteGroup != -1 || q.BlockedSince != -1 {
		t.Error("sentinel fields not initialized")
	}
}

func TestPoolPutNil(t *testing.T) {
	var pool Pool
	pool.Put(nil) // must not panic
	if pool.Outstanding() != 0 {
		t.Error("outstanding count moved")
	}
}

func TestPoolUniqueIDs(t *testing.T) {
	var pool Pool
	seen := map[ID]bool{}
	var live []*Packet
	for i := 0; i < 1000; i++ {
		p := pool.Get()
		if seen[p.ID] {
			t.Fatalf("duplicate ID %d", p.ID)
		}
		seen[p.ID] = true
		live = append(live, p)
		if i%3 == 0 {
			pool.Put(live[0])
			live = live[1:]
		}
	}
	if pool.Outstanding() != 1000 {
		t.Errorf("outstanding=%d", pool.Outstanding())
	}
}

func TestEnterGroupClearsLocalMisroute(t *testing.T) {
	var p Packet
	p.Reset()
	p.LocalMisrouted = true
	p.MisrouteGroup = 3
	p.EnterGroup(3) // same group: flag persists
	if !p.LocalMisrouted {
		t.Error("flag cleared within the misroute group")
	}
	p.EnterGroup(4) // group change: flag resets
	if p.LocalMisrouted || p.MisrouteGroup != -1 {
		t.Error("flag not cleared on group change")
	}
}

func TestEnterGroupCompletesValiant(t *testing.T) {
	var p Packet
	p.Reset()
	p.ValiantGroup = 7
	p.EnterGroup(6)
	if p.ValiantGroup != 7 {
		t.Error("valiant group cleared early")
	}
	p.EnterGroup(7)
	if p.ValiantGroup != -1 {
		t.Error("valiant group not cleared on arrival")
	}
}

func TestEnterGroupQuick(t *testing.T) {
	f := func(groups []uint8, misG uint8) bool {
		var p Packet
		p.Reset()
		p.LocalMisrouted = true
		p.MisrouteGroup = int16(misG)
		for _, g := range groups {
			p.EnterGroup(int(g))
			// Invariant: the flag may only be set while in its group.
			if p.LocalMisrouted && p.MisrouteGroup != int16(misG) {
				return false
			}
			if p.LocalMisrouted && int(g) != int(misG) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
