package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/traffic"
)

// snapCfg is the small h=2 system the snapshot tests run on: 36 routers,
// 72 nodes, OFAR with a physical escape ring — every subsystem the snapshot
// must carry (rings, escape VCs, PB boards are exercised separately).
func snapCfg(workers int, noSched bool) Config {
	cfg := DefaultConfig(2)
	cfg.Seed = 7
	cfg.Workers = workers
	cfg.ParallelCutover = 1 // force the pool on every non-empty cycle
	cfg.DisableActivitySched = noSched
	return cfg
}

func snapNet(t *testing.T, cfg Config, load float64) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers > 1 {
		t.Cleanup(n.Close)
	}
	n.EnableGrantDigest()
	n.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(n.Topo), load, cfg.PacketSize))
	return n
}

func snapshotBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectSameState asserts bit-for-bit equality of two networks: per-router
// state fingerprints, the grant digest, and the full canonical snapshot
// image (which covers stats, buffers, events, rings and generator state).
func expectSameState(t *testing.T, label string, a, b *Network) {
	t.Helper()
	for i := range a.Routers {
		if fa, fb := a.Routers[i].StateFingerprint(), b.Routers[i].StateFingerprint(); fa != fb {
			t.Fatalf("%s: router %d fingerprint %016x != %016x", label, i, fa, fb)
		}
	}
	da, ca := a.GrantDigest()
	db, cb := b.GrantDigest()
	if da != db || ca != cb {
		t.Fatalf("%s: grant digest %016x/%d != %016x/%d", label, da, ca, db, cb)
	}
	sa, sb := snapshotBytes(t, a), snapshotBytes(t, b)
	if !bytes.Equal(sa, sb) {
		t.Fatalf("%s: canonical snapshot images differ (%d vs %d bytes)", label, len(sa), len(sb))
	}
}

// TestSnapshotDifferential is the restore-equality matrix: for each load ×
// worker count × scheduler setting, running K cycles, snapshotting and
// running M more must be bit-identical to restoring that snapshot into a
// fresh network and running the same M cycles — per-router fingerprints,
// grant digests and statistics all included.
func TestSnapshotDifferential(t *testing.T) {
	const warm, measure = 300, 300
	loads := []float64{0.05, 0.6, 0.9}
	workerCounts := []int{1, 4}
	if testing.Short() {
		loads = []float64{0.6}
	}
	for _, load := range loads {
		for _, workers := range workerCounts {
			for _, noSched := range []bool{false, true} {
				cfg := snapCfg(workers, noSched)
				sched := "sched"
				if noSched {
					sched = "nosched"
				}
				name := fmt.Sprintf("load%.2f_w%d_%s", load, workers, sched)
				t.Run(name, func(t *testing.T) {
					orig := snapNet(t, cfg, load)
					orig.Run(warm)
					snap := snapshotBytes(t, orig)
					orig.Run(measure)

					restored := snapNet(t, cfg, load)
					if err := restored.Restore(bytes.NewReader(snap)); err != nil {
						t.Fatal(err)
					}
					restored.Run(measure)
					expectSameState(t, name, orig, restored)
				})
			}
		}
	}
}

// TestSnapshotIsPure proves taking a snapshot perturbs nothing: a run that
// snapshots mid-flight ends bit-identical to one that never did.
func TestSnapshotIsPure(t *testing.T) {
	cfg := snapCfg(1, false)
	a := snapNet(t, cfg, 0.6)
	a.Run(200)
	_ = snapshotBytes(t, a) // side-effect-free by contract
	a.Run(200)

	b := snapNet(t, cfg, 0.6)
	b.Run(400)
	expectSameState(t, "pure", a, b)
}

// TestSnapshotCrossSetting restores a snapshot taken under one execution
// configuration (parallel, scheduler on, cache on) into networks built with
// different wall-clock settings: results must stay bit-identical, because
// those settings are normalized out of the snapshot's config identity.
func TestSnapshotCrossSetting(t *testing.T) {
	const warm, measure = 300, 300
	src := snapCfg(4, false)
	orig := snapNet(t, src, 0.6)
	orig.Run(warm)
	snap := snapshotBytes(t, orig)
	orig.Run(measure)

	variants := []Config{
		snapCfg(1, true), // serial, scheduler off
		func() Config {
			c := snapCfg(1, false)
			c.DisableRouteCache = true
			return c
		}(),
	}
	for i, cfg := range variants {
		restored := snapNet(t, cfg, 0.6)
		if err := restored.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		restored.Run(measure)
		expectSameState(t, "cross-setting", orig, restored)
	}
}

// TestSnapshotAcrossSharding: the pool width is a wall-clock setting —
// normalized out of the snapshot's config identity, like the deprecated
// ShardByGroup flag, which the shard side sets to prove it is ignored — so
// a snapshot taken on the group-sharded pool restores into an inline
// network (and vice versa) bit-identically, snapshot image included.
// ParallelCutover=1 (from snapCfg) forces the pool on every non-empty
// phase, so the shard side genuinely runs pooled even on a single-P host.
func TestSnapshotAcrossSharding(t *testing.T) {
	const warm, measure = 300, 300
	shardCfg := snapCfg(4, false)
	shardCfg.ShardByGroup = true
	serialCfg := snapCfg(1, false)

	for _, dir := range []struct {
		name     string
		src, dst Config
	}{
		{"shard_to_serial", shardCfg, serialCfg},
		{"serial_to_shard", serialCfg, shardCfg},
	} {
		t.Run(dir.name, func(t *testing.T) {
			orig := snapNet(t, dir.src, 0.6)
			orig.Run(warm)
			snap := snapshotBytes(t, orig)
			orig.Run(measure)

			restored := snapNet(t, dir.dst, 0.6)
			if err := restored.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			restored.Run(measure)
			expectSameState(t, dir.name, orig, restored)
		})
	}
}

// TestSnapshotWithFaults covers the hardest restore surface: a router fault
// before the snapshot point (ring splice surgery, dead masks, dropped
// packets) and another fault after it (the restored fault cursor must fire
// it on time).
func TestSnapshotWithFaults(t *testing.T) {
	cfg := snapCfg(1, false)
	cfg.Faults = []Fault{
		{Cycle: 100, Kind: FaultRouter, Router: 5},
		{Cycle: 450, Kind: FaultLink, Router: 11, Port: cfg.P},
	}
	orig := snapNet(t, cfg, 0.6)
	orig.Run(300)
	snap := snapshotBytes(t, orig)
	orig.Run(300)

	restored := snapNet(t, cfg, 0.6)
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	restored.Run(300)
	expectSameState(t, "faults", orig, restored)
	if got := restored.DeadRouters(); got != 1 {
		t.Fatalf("restored network reports %d dead routers, want 1", got)
	}
	if orig.FaultsApplied() != restored.FaultsApplied() {
		t.Fatalf("fault cursors diverged: %d vs %d", orig.FaultsApplied(), restored.FaultsApplied())
	}
}

// TestSnapshotBurstGenerator proves stateful generator progress restores:
// a burst source's per-node budgets continue exactly where they stopped.
func TestSnapshotBurstGenerator(t *testing.T) {
	cfg := snapCfg(1, false)
	mkGen := func(n *Network) *traffic.Burst {
		return traffic.NewBurst(traffic.NewUniform(n.Topo), 4, n.Topo.Nodes)
	}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig.EnableGrantDigest()
	orig.SetGenerator(mkGen(orig))
	orig.Run(200)
	snap := snapshotBytes(t, orig)
	orig.Run(400)

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored.EnableGrantDigest()
	restored.SetGenerator(mkGen(restored))
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	restored.Run(400)
	expectSameState(t, "burst", orig, restored)
}

// TestSnapshotGrantLogRestores proves the grant log and its cap carry over,
// enabling golden-trace comparisons across a snapshot boundary.
func TestSnapshotGrantLogRestores(t *testing.T) {
	cfg := snapCfg(1, false)
	orig := snapNet(t, cfg, 0.6)
	orig.EnableGrantLog(64)
	orig.Run(150)
	snap := snapshotBytes(t, orig)
	orig.Run(150)

	restored := snapNet(t, cfg, 0.6)
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	restored.Run(150)
	a, b := orig.GrantLog(), restored.GrantLog()
	if len(a) != len(b) {
		t.Fatalf("grant log lengths diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant log entry %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestForkIndependence forks one warm network twice, drives the forks with
// different loads, and proves (a) the parent is untouched, (b) each fork is
// bit-identical to a solo run restored from the same snapshot — i.e. the
// forks share no mutable state with the parent or each other. Runs under
// -race in CI with Workers > 1, which would catch any shared-slice aliasing
// as a data race too.
func TestForkIndependence(t *testing.T) {
	cfg := snapCfg(4, false)
	parent := snapNet(t, cfg, 0.6)
	parent.Run(300)
	parentBefore := snapshotBytes(t, parent)

	fork1, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fork1.Close)
	fork2, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fork2.Close)

	// Drive the forks with different loads.
	fork1.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(fork1.Topo), 0.1, cfg.PacketSize))
	fork2.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(fork2.Topo), 0.9, cfg.PacketSize))
	fork1.Run(300)
	fork2.Run(300)

	if !bytes.Equal(parentBefore, snapshotBytes(t, parent)) {
		t.Fatal("stepping forks mutated the parent network")
	}

	for i, tc := range []struct {
		fork *Network
		load float64
	}{{fork1, 0.1}, {fork2, 0.9}} {
		solo := snapNet(t, cfg, tc.load)
		if err := solo.Restore(bytes.NewReader(parentBefore)); err != nil {
			t.Fatal(err)
		}
		solo.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(solo.Topo), tc.load, cfg.PacketSize))
		solo.Run(300)
		expectSameState(t, fmt.Sprintf("fork%d", i+1), tc.fork, solo)
	}
}

// TestRestoreRejects exercises the refusal paths: wrong magic, wrong
// version, flipped payload bits, truncation, config mismatch and trailing
// garbage must all error out without panicking.
func TestRestoreRejects(t *testing.T) {
	cfg := snapCfg(1, false)
	orig := snapNet(t, cfg, 0.6)
	orig.Run(120)
	snap := snapshotBytes(t, orig)

	fresh := func() *Network { return snapNet(t, cfg, 0.6) }
	expectErr := func(label string, data []byte) {
		t.Helper()
		if err := fresh().Restore(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: restore accepted corrupt input", label)
		}
	}

	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xff
	expectErr("magic", bad)

	bad = append([]byte(nil), snap...)
	bad[8] ^= 0x01 // version word
	expectErr("version", bad)

	bad = append([]byte(nil), snap...)
	bad[len(bad)-1] ^= 0x40 // payload tail
	expectErr("payload bitflip", bad)

	expectErr("truncated", snap[:len(snap)/2])
	expectErr("empty", nil)
	expectErr("trailing garbage", append(append([]byte(nil), snap...), 0xEE))

	other := snapCfg(1, false)
	other.Seed = 99
	mis, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	mis.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(mis.Topo), 0.6, other.PacketSize))
	if err := mis.Restore(bytes.NewReader(snap)); err == nil {
		t.Fatal("restore accepted a snapshot from a different configuration")
	}
}

// Byte offsets of fields within one encoded packet record (encodePacket):
// 8-byte integers except the three flags, which are one byte each.
const (
	recSize      = 8
	recDst       = 16
	recSrcGroup  = 24
	recValiant   = 40
	recRing      = 59
	recLocalHops = 67
	recGlobalHop = 75
	recSrc       = 83
	recMisGroup  = 91
	recTotalHops = 99
	recRingExits = 107
	recRingHops  = 115
	recJob       = 123
	recDone      = 147
	recLen       = 155
)

// hoppedPacket returns a buffered packet of n that has crossed at least one
// link, so its hop fields are non-trivial.
func hoppedPacket(t testing.TB, n *Network) *packet.Packet {
	t.Helper()
	var found *packet.Packet
	for _, r := range n.Routers {
		r.ForEachPacket(func(p *packet.Packet) {
			if found == nil && p.TotalHops() > 0 {
				found = p
			}
		})
	}
	if found == nil {
		t.Fatal("no buffered packet has crossed a link")
	}
	return found
}

// patchPacketRecord returns a copy of n's snapshot image img in which the
// 8-byte field at offset off of p's packet record holds v, with the payload
// checksum recomputed — a well-formed image whose only defect is the value.
func patchPacketRecord(t testing.TB, n *Network, img []byte, p *packet.Packet, off int, v int64) []byte {
	t.Helper()
	var e simcore.Enc
	n.encodePacket(&e, p)
	rec := e.Data()
	if len(rec) != recLen {
		t.Fatalf("packet record is %d bytes, the offsets assume %d", len(rec), recLen)
	}
	cfgJSON, err := SnapshotConfigJSON(n.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, engine digest, framed config, checksum, payload length
	sumAt := 8 + 8 + 8 + 8 + len(cfgJSON)
	payloadAt := sumAt + 16
	out := append([]byte(nil), img...)
	if bytes.Count(out[payloadAt:], rec) != 1 {
		t.Fatal("packet record not found exactly once in the image")
	}
	at := payloadAt + bytes.Index(out[payloadAt:], rec) + off
	binary.LittleEndian.PutUint64(out[at:], uint64(v))
	binary.LittleEndian.PutUint64(out[sumAt:], simcore.Checksum64(out[payloadAt:]))
	return out
}

// TestSnapshotRejectsOutOfRangePacket: the decoder range-checks every
// packet field before narrowing it into the compact header, and requires the
// derived total hop count and the absent delivery time to be what the
// encoder writes. Each case patches one field of one packet record of a
// valid image; the unpatched image must restore.
func TestSnapshotRejectsOutOfRangePacket(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Seed = 7
	n := snapNet(t, cfg, 0.6)
	n.Run(150)
	img := snapshotBytes(t, n)
	p := hoppedPacket(t, n)
	total := int64(p.TotalHops())
	restore := func(data []byte) error {
		m := snapNet(t, cfg, 0.6)
		return m.Restore(bytes.NewReader(data))
	}
	if err := restore(patchPacketRecord(t, n, img, p, recTotalHops, total)); err != nil {
		t.Fatalf("unchanged record refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		off  int
		v    int64
		want string
	}{
		{"size", recSize, 16, "size"},
		{"dst-beyond-int32", recDst, 1 << 40, "endpoints"},
		{"src-negative", recSrc, -1, "endpoints"},
		{"src-group-beyond-int16", recSrcGroup, 40000, "group fields"},
		{"src-group-beyond-topology", recSrcGroup, int64(n.Topo.G), "group fields"},
		{"valiant-below-sentinel", recValiant, -2, "intermediate-group"},
		{"misroute-group-beyond-int16", recMisGroup, 1 << 20, "intermediate-group"},
		{"ring-beyond-int8", recRing, 128, "ring"},
		{"local-hops-beyond-int16", recLocalHops, 40000, "hop classes"},
		{"global-hops-negative", recGlobalHop, -1, "hop classes"},
		{"ring-hops-beyond-int32", recRingHops, 1 << 31, "ring hops"},
		{"ring-exits-beyond-uint8", recRingExits, 256, "ring exits"},
		{"total-hops-off-by-one", recTotalHops, total + 1, "total hops"},
		{"delivered", recDone, 5, "delivery time"},
		{"job-beyond-int16", recJob, 40000, "job slot"},
		{"job-unattached", recJob, 0, "job slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := restore(patchPacketRecord(t, n, img, p, tc.off, tc.v))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
