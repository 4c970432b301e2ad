package network

import (
	"bytes"
	"testing"

	"ofar/internal/traffic"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes to Restore. The contract under
// fuzz: corrupt input must return an error — never panic, never leave a
// silently-wrong simulator behind an accepted restore. When Restore accepts
// the input, the state must be genuinely valid: re-snapshotting must
// reproduce a restorable image with identical router fingerprints, and
// stepping the restored network must preserve packet conservation.
//
// The seed corpus holds real snapshots — cold, warm, and warm-with-faults —
// so mutations explore the format's interior, not just the magic check, plus
// warm images with one packet's group, hop or job field patched beyond what
// the compact packet header holds.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cfg := DefaultConfig(2)
	cfg.Seed = 5

	build := func(cycles int, withFault bool) (*Network, []byte) {
		c := cfg
		if withFault {
			c.Faults = []Fault{{Cycle: 60, Kind: FaultRouter, Router: 3}}
		}
		n, err := New(c)
		if err != nil {
			f.Fatal(err)
		}
		n.EnableGrantDigest()
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.6, c.PacketSize))
		n.Run(cycles)
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return n, buf.Bytes()
	}
	seed := func(cycles int, withFault bool) []byte {
		_, img := build(cycles, withFault)
		return img
	}
	f.Add(seed(0, false))
	f.Add(seed(150, false))
	f.Add(seed(150, true)) // config mismatch vs the target: exercises rejection
	warm, img := build(150, false)
	p := hoppedPacket(f, warm)
	f.Add(patchPacketRecord(f, warm, img, p, recSrcGroup, 40000))
	f.Add(patchPacketRecord(f, warm, img, p, recValiant, 1<<16))
	f.Add(patchPacketRecord(f, warm, img, p, recLocalHops, 1<<15))
	f.Add(patchPacketRecord(f, warm, img, p, recRingHops, 1<<31))
	f.Add(patchPacketRecord(f, warm, img, p, recRingExits, 256))
	f.Add(patchPacketRecord(f, warm, img, p, recJob, 1<<15))
	f.Add([]byte("OFARSNAP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), 0.6, cfg.PacketSize))
		if err := n.Restore(bytes.NewReader(data)); err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}

		// Accepted: the image must round-trip to an identical simulator...
		var buf bytes.Buffer
		if err := n.Snapshot(&buf); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(m.Topo), 0.6, cfg.PacketSize))
		if err := m.Restore(&buf); err != nil {
			t.Fatalf("re-encoded snapshot does not restore: %v", err)
		}
		for i := range n.Routers {
			if a, b := n.Routers[i].StateFingerprint(), m.Routers[i].StateFingerprint(); a != b {
				t.Fatalf("router %d fingerprint diverged after round trip: %016x != %016x", i, a, b)
			}
		}

		// ...and stepping it must keep the conservation identity.
		n.Run(50)
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("restored simulator violates conservation: %v", err)
		}
	})
}
