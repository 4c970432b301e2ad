package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/simcore"
	"ofar/internal/topology"
	"ofar/internal/traffic"
)

// Warm-state checkpointing. Snapshot serializes the entire simulation —
// RNG streams, per-VC buffers and credits, the event wheel, arbiter LRS
// memories, escape-ring wiring (including post-splice surgery), fault
// cursor and liveness masks, grant digest/log, generator progress and all
// statistics — into a versioned binary image. Restore rebuilds exactly that
// state inside a network constructed from the same configuration, and a
// restored run is bit-identical to one that was never interrupted (see
// TestSnapshotDifferential). Fork round-trips through an in-memory snapshot
// to clone warm state into a fully independent network.
//
// What is deliberately NOT serialized:
//
//   - The route cache: pure memoization, recomputable from serialized state.
//     Restore brings every router up cache-cold; cache-on and cache-off
//     trajectories are bit-identical, so resuming cold from a warm snapshot
//     continues the exact same run.
//   - Path tracing: a diagnostics sink with per-packet allocation; Restore
//     resets it to disabled.
//   - The worker pool, activity scheduler and parallel cutover: wall-clock
//     machinery, rebuilt from the restoring network's own configuration. The
//     snapshot config is compared after normalizing these fields away, so a
//     snapshot taken at Workers=4 restores into a Workers=1 network (and any
//     other combination) with identical results.
//
// The header carries the engine's golden-trace digest (EngineDigest): a
// snapshot written by a build with different simulation physics fails fast
// at Restore instead of silently resuming a divergent run.

const (
	snapMagic = "OFARSNAP"

	// SnapshotVersion identifies the payload layout. Any change to the
	// encode/decode pairs below must bump it; Restore rejects other versions.
	// Version 2 added the packet Job tag and the per-job statistics section.
	// Version 3 replaced the single traffic RNG state with one state per
	// dragonfly group (the sharded injection front-end's per-group streams).
	SnapshotVersion = 3

	maxSnapCfgJSON = 1 << 20
	maxSnapPackets = 1 << 26
	maxSnapEvents  = 1 << 26
	maxSnapLog     = 1 << 24
	maxSnapGenName = 1 << 12
	maxSnapQueue   = 1 << 24
	maxSnapRings   = 1 << 16
)

var (
	engineDigestOnce sync.Once
	engineDigestVal  uint64
)

// EngineDigest returns the grant digest of one small canonical run — a fixed
// h=2 dragonfly under uniform Bernoulli traffic with one scheduled router
// fault — computed once per process. It acts as a physics fingerprint: any
// change to routing, allocation, timing or fault semantics moves it, which is
// what lets Restore refuse snapshots written by a behaviorally different
// build. It is NOT a build or version string; two builds that simulate
// identically interchange snapshots freely.
func EngineDigest() uint64 {
	engineDigestOnce.Do(func() {
		cfg := DefaultConfig(2)
		cfg.Seed = 12345
		cfg.Faults = []Fault{{Cycle: 200, Kind: FaultRouter, Router: 3}}
		net, err := New(cfg)
		if err != nil {
			panic(fmt.Sprintf("network: engine digest config invalid: %v", err))
		}
		net.EnableGrantDigest()
		net.SetGenerator(traffic.NewBernoulli(traffic.NewUniform(net.Topo), 0.5, cfg.PacketSize))
		net.Run(400)
		engineDigestVal, _ = net.GrantDigest()
	})
	return engineDigestVal
}

// normalizeConfig zeroes the fields that change wall-clock execution but not
// simulated physics, so snapshots restore across worker counts, scheduler
// and route-cache settings (all proven bit-identical elsewhere). Everything
// else — topology, buffering, routing, faults, seed — must match exactly.
func normalizeConfig(c Config) Config {
	c.Workers = 0
	c.ParallelCutover = 0
	c.ShardByGroup = false
	c.DisableActivitySched = false
	c.DisableRouteCache = false
	return c
}

// SnapshotConfigJSON returns the canonical JSON identity of a configuration
// as embedded in snapshot headers: wall-clock-only execution fields are
// normalized away, so two configs that restore each other's snapshots hash
// identically. Warm-state caches key their entries on this.
func SnapshotConfigJSON(c Config) ([]byte, error) {
	return json.Marshal(normalizeConfig(c))
}

// Snapshot writes the network's full simulation state to w. The image is
// deterministic: the same state always produces the same bytes.
func (n *Network) Snapshot(w io.Writer) error {
	cfgJSON, err := json.Marshal(normalizeConfig(n.Cfg))
	if err != nil {
		return fmt.Errorf("network: snapshot config: %w", err)
	}
	var payload simcore.Enc
	n.encodePayload(&payload)
	data := payload.Data()

	// The header ends with the payload's length prefix (the framing of
	// Enc.Bytes); the payload itself is written as encoded, not copied.
	var hdr simcore.Enc
	hdr.Raw([]byte(snapMagic))
	hdr.U64(SnapshotVersion)
	hdr.U64(EngineDigest())
	hdr.Bytes(cfgJSON)
	hdr.U64(simcore.Checksum64(data))
	hdr.Int(len(data))
	for _, b := range [][]byte{hdr.Data(), data} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("network: snapshot write: %w", err)
		}
	}
	return nil
}

// Restore overwrites this network's simulation state from a snapshot written
// by Snapshot. The network must have been built from the same configuration
// (modulo the normalized wall-clock fields) by the same simulation physics
// (EngineDigest), and the same traffic source must be attached when the
// snapshot carries generator state. Corrupt or truncated input is detected
// (checksum before any mutation, bounds checks after) and returns an error —
// never a panic. If Restore returns an error after the checksum passed, the
// network's state is unspecified: discard it.
func (n *Network) Restore(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("network: restore read: %w", err)
	}
	d := simcore.NewDec(raw)
	magic := d.Raw(len(snapMagic))
	if d.Err() == nil && string(magic) != snapMagic {
		return fmt.Errorf("network: not a snapshot (bad magic)")
	}
	if v := d.U64(); d.Err() == nil && v != SnapshotVersion {
		return fmt.Errorf("network: snapshot format version %d, this build reads %d", v, SnapshotVersion)
	}
	if dg := d.U64(); d.Err() == nil && dg != EngineDigest() {
		return fmt.Errorf("network: snapshot engine digest %016x != this build's %016x — the simulator's physics changed; re-run instead of restoring", dg, EngineDigest())
	}
	cfgJSON := d.Bytes(maxSnapCfgJSON)
	if d.Err() == nil {
		want, err := json.Marshal(normalizeConfig(n.Cfg))
		if err != nil {
			return fmt.Errorf("network: restore config: %w", err)
		}
		if !bytes.Equal(cfgJSON, want) {
			return fmt.Errorf("network: snapshot was taken with a different configuration")
		}
	}
	sum := d.U64()
	payload := d.Bytes(len(raw))
	if err := d.Err(); err != nil {
		return fmt.Errorf("network: restore: %w", err)
	}
	if simcore.Checksum64(payload) != sum {
		return fmt.Errorf("network: snapshot payload checksum mismatch (corrupt or truncated)")
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("network: %d trailing bytes after snapshot", d.Remaining())
	}
	if err := n.decodePayload(simcore.NewDec(payload)); err != nil {
		return fmt.Errorf("network: restore: %w", err)
	}
	return nil
}

// Fork clones the warm simulation state into a fresh, fully independent
// network: its own routers, buffers, event wheel, RNG streams positioned
// identically, and (when configured) its own worker pool. The clone and the
// original can be stepped independently without sharing any mutable state.
// Stateless traffic sources are shared (their Next reads only immutable
// pattern state); stateful ones must implement traffic.CloneableGenerator.
// Networks with Workers > 1 own goroutines: Close the fork when done.
func (n *Network) Fork() (*Network, error) {
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		return nil, fmt.Errorf("network: fork: %w", err)
	}
	m, err := New(n.Cfg)
	if err != nil {
		return nil, fmt.Errorf("network: fork rebuild: %w", err)
	}
	switch g := n.gen.(type) {
	case traffic.CloneableGenerator:
		m.SetGenerator(g.CloneGenerator())
	case traffic.StatefulGenerator:
		m.Close()
		return nil, fmt.Errorf("network: fork: generator %q is stateful but not cloneable", g.Name())
	case nil:
	default:
		m.SetGenerator(n.gen)
	}
	if err := m.Restore(&buf); err != nil {
		m.Close()
		return nil, fmt.Errorf("network: fork: %w", err)
	}
	return m, nil
}

// groupBoards returns the PB flag board of every group, in group order (nil
// when the mechanism does not piggyback). Boards are shared per group, so the
// snapshot serializes each exactly once.
func (n *Network) groupBoards() []*router.FlagBoard {
	if !n.usePB {
		return nil
	}
	boards := make([]*router.FlagBoard, n.Topo.G)
	for _, r := range n.Routers {
		if g := n.Topo.GroupOf(r.ID); boards[g] == nil {
			boards[g] = r.Board()
		}
	}
	return boards
}

func (n *Network) encodePayload(e *simcore.Enc) {
	e.I64(n.now)
	e.Int(n.inFlight)
	e.I64(n.CongestionStalls)
	e.Int(n.faultIdx)
	e.Bool(n.deadRouter != nil)
	if n.deadRouter != nil {
		for _, b := range n.deadRouter {
			e.Bool(b)
		}
		for _, b := range n.deadNode {
			e.Bool(b)
		}
	}
	for _, rng := range n.trafficRNG {
		for _, s := range rng.State() {
			e.U64(s)
		}
	}
	e.U64(n.pool.Outstanding())

	e.Bool(n.digestOn)
	e.U64(n.digest)
	e.I64(n.digestCount)
	e.Int(n.logCap)
	e.Int(len(n.grantLog))
	for i := range n.grantLog {
		g := &n.grantLog[i]
		e.I64(g.Cycle)
		e.Int(g.Router)
		e.Int(g.InPort)
		e.Int(g.InVC)
		e.Int(g.Out)
		e.Int(g.VC)
		e.Int(g.Src)
		e.Int(g.Dst)
		e.I64(g.Born)
		e.Bool(g.Eject)
	}

	e.Bool(n.gen != nil)
	if n.gen != nil {
		e.Bytes([]byte(n.gen.Name()))
		sg, stateful := n.gen.(traffic.StatefulGenerator)
		e.Bool(stateful)
		if stateful {
			sg.EncodeState(e)
		}
	}

	n.Stats.EncodeState(e)

	// Deduplicated packet table, sorted by ID for deterministic bytes. A
	// committed packet can be referenced twice — by the draining buffer that
	// still holds it and by its in-flight arrival event — and must decode to
	// one object, which is why buffers and events store IDs into this table.
	table := make(map[packet.ID]*packet.Packet)
	for _, r := range n.Routers {
		r.ForEachPacket(func(p *packet.Packet) { table[p.ID] = p })
	}
	for i := range n.pending {
		pq := &n.pending[i]
		for j := pq.head; j < len(pq.q); j++ {
			table[pq.q[j].ID] = pq.q[j]
		}
	}
	n.wheel.ForEach(func(ev event) {
		if ev.kind == evArrive {
			table[ev.pkt.ID] = ev.pkt
		}
	})
	ids := make([]packet.ID, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Int(len(ids))
	for _, id := range ids {
		n.encodePacket(e, table[id])
	}

	e.Int(len(n.pending))
	for i := range n.pending {
		pq := &n.pending[i]
		e.Int(pq.len())
		for j := pq.head; j < len(pq.q); j++ {
			e.U64(uint64(pq.q[j].ID))
		}
	}

	e.Int(len(n.Rings))
	for _, rg := range n.Rings {
		rg.EncodeState(e)
	}

	for _, r := range n.Routers {
		r.EncodeState(e)
	}

	for _, b := range n.groupBoards() {
		b.EncodeState(e)
	}

	e.Int(n.wheel.Pending())
	n.wheel.ForEachDelay(func(delay int, ev event) {
		e.Int(delay)
		e.U8(uint8(ev.kind))
		e.I64(int64(ev.r))
		e.I64(int64(ev.port))
		e.I64(int64(ev.vc))
		e.I64(int64(ev.phits))
		if ev.kind == evArrive {
			e.U64(uint64(ev.pkt.ID))
		}
	})
}

func (n *Network) decodePayload(d *simcore.Dec) error {
	now := d.I64()
	if d.Err() == nil && now < 0 {
		d.Fail("negative cycle %d", now)
	}
	inFlight := d.Int()
	congestionStalls := d.I64()
	faultIdx := d.Int()
	if d.Err() == nil && (faultIdx < 0 || faultIdx > len(n.faults)) {
		d.Fail("fault cursor %d outside [0,%d]", faultIdx, len(n.faults))
	}
	hasMasks := d.Bool()
	if d.Err() == nil && hasMasks != (n.deadRouter != nil) {
		d.Fail("fault liveness masks present=%v, network configured=%v", hasMasks, n.deadRouter != nil)
	}
	if d.Err() != nil {
		return d.Err()
	}
	if hasMasks {
		for i := range n.deadRouter {
			n.deadRouter[i] = d.Bool()
		}
		for i := range n.deadNode {
			n.deadNode[i] = d.Bool()
		}
	}
	for g := range n.trafficRNG {
		var st [4]uint64
		for i := range st {
			st[i] = d.U64()
		}
		if d.Err() == nil {
			if err := n.trafficRNG[g].SetState(st); err != nil {
				d.Fail("traffic rng group %d: %v", g, err)
			}
		}
	}
	outstanding := d.U64()

	digestOn := d.Bool()
	digest := d.U64()
	digestCount := d.I64()
	logCap := d.Len(maxSnapLog)
	nLog := d.Len(maxSnapLog)
	if d.Err() == nil && nLog > logCap {
		d.Fail("grant log holds %d events beyond its cap %d", nLog, logCap)
	}
	if d.Err() != nil {
		return d.Err()
	}
	var grantLog []GrantEvent
	if logCap > 0 {
		grantLog = make([]GrantEvent, 0, min(nLog, 1024))
	}
	for i := 0; i < nLog; i++ {
		var g GrantEvent
		g.Cycle = d.I64()
		g.Router = d.Int()
		g.InPort = d.Int()
		g.InVC = d.Int()
		g.Out = d.Int()
		g.VC = d.Int()
		g.Src = d.Int()
		g.Dst = d.Int()
		g.Born = d.I64()
		g.Eject = d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		grantLog = append(grantLog, g)
	}

	if hasGen := d.Bool(); hasGen {
		name := string(d.Bytes(maxSnapGenName))
		stateful := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if stateful {
			sg, ok := n.gen.(traffic.StatefulGenerator)
			if !ok || n.gen.Name() != name {
				d.Fail("snapshot carries state for generator %q; attach the same generator before Restore", name)
				return d.Err()
			}
			if err := sg.DecodeState(d); err != nil {
				return err
			}
		}
		// Stateless source: nothing to restore. The caller is responsible for
		// attaching an equivalent generator (its draws come from trafficRNG,
		// which is serialized, so an identical source reproduces the run).
	}

	if err := n.Stats.DecodeState(d); err != nil {
		return err
	}

	nPkts := d.Len(maxSnapPackets)
	if d.Err() != nil {
		return d.Err()
	}
	table := make(map[uint64]*packet.Packet, min(nPkts, 4096))
	var prevID uint64
	for i := 0; i < nPkts; i++ {
		p := new(packet.Packet)
		id := n.decodePacket(d, p)
		if d.Err() != nil {
			return d.Err()
		}
		if id <= prevID {
			d.Fail("packet IDs not strictly increasing at %d", id)
			return d.Err()
		}
		if id > outstanding {
			d.Fail("packet ID %d beyond the pool's %d handed-out IDs", id, outstanding)
			return d.Err()
		}
		prevID = id
		table[id] = p
	}
	lookup := func(id uint64) (*packet.Packet, error) {
		if p, ok := table[id]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("unknown packet ID %d", id)
	}

	if np := d.Len(maxSnapPackets); d.Err() == nil && np != len(n.pending) {
		d.Fail("pending queues for %d nodes, network has %d", np, len(n.pending))
	}
	if d.Err() != nil {
		return d.Err()
	}
	for node := range n.pending {
		pq := &n.pending[node]
		pq.q = pq.q[:0]
		pq.head = 0
		cnt := d.Len(maxSnapQueue)
		for j := 0; j < cnt && d.Err() == nil; j++ {
			p, err := lookup(d.U64())
			if d.Err() == nil && err != nil {
				d.Fail("pending[%d]: %v", node, err)
			}
			if d.Err() == nil {
				pq.q = append(pq.q, p)
			}
		}
		if d.Err() != nil {
			return d.Err()
		}
	}

	if nr := d.Len(maxSnapRings); d.Err() == nil && nr != len(n.Rings) {
		d.Fail("snapshot has %d rings, network has %d", nr, len(n.Rings))
	}
	if d.Err() != nil {
		return d.Err()
	}
	for j := range n.Rings {
		rg, err := topology.DecodeRing(d, n.Topo.Routers)
		if err != nil {
			return err
		}
		n.Rings[j] = rg
	}

	for _, r := range n.Routers {
		if err := r.DecodeState(d, lookup, now); err != nil {
			return err
		}
	}

	for _, b := range n.groupBoards() {
		if err := b.DecodeState(d); err != nil {
			return err
		}
	}

	wheel := simcore.NewWheel[event](n.wheel.Horizon())
	nEv := d.Len(maxSnapEvents)
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < nEv; i++ {
		delay := d.Int()
		kind := evKind(d.U8())
		rr := d.I64()
		port := d.I64()
		vc := d.I64()
		phits := d.I64()
		if d.Err() != nil {
			return d.Err()
		}
		if delay < 0 || delay > wheel.Horizon() {
			d.Fail("event delay %d outside wheel horizon %d", delay, wheel.Horizon())
			return d.Err()
		}
		if kind > evCredit {
			d.Fail("unknown event kind %d", kind)
			return d.Err()
		}
		if rr < 0 || rr >= int64(len(n.Routers)) {
			d.Fail("event router %d out of range", rr)
			return d.Err()
		}
		rt := n.Routers[rr]
		if port < 0 || port >= int64(len(rt.In)) {
			d.Fail("event port %d out of range on router %d", port, rr)
			return d.Err()
		}
		maxVC := len(rt.In[port].VCs)
		if kind == evCredit {
			maxVC = rt.Out[port].NumVCs()
		}
		if vc < 0 || vc >= int64(maxVC) {
			d.Fail("event vc %d out of range on router %d port %d", vc, rr, port)
			return d.Err()
		}
		if phits < 0 || phits > int64(n.Cfg.PacketSize) {
			d.Fail("event phits %d out of range", phits)
			return d.Err()
		}
		ev := event{kind: kind, r: int32(rr), port: int16(port), vc: int16(vc), phits: int32(phits)}
		if kind == evArrive {
			p, err := lookup(d.U64())
			if d.Err() != nil {
				return d.Err()
			}
			if err != nil {
				d.Fail("event: %v", err)
				return d.Err()
			}
			ev.pkt = p
		}
		wheel.Schedule(delay, ev)
	}
	if d.Remaining() != 0 {
		d.Fail("%d trailing payload bytes", d.Remaining())
		return d.Err()
	}

	// Everything decoded and validated; commit the staged scalars.
	n.now = now
	n.inFlight = inFlight
	n.CongestionStalls = congestionStalls
	n.faultIdx = faultIdx
	n.pool.SetOutstanding(outstanding)
	n.digestOn, n.digest, n.digestCount = digestOn, digest, digestCount
	n.logCap, n.grantLog = logCap, grantLog
	n.wheel = wheel
	n.traceEvery, n.traces = 0, nil

	// Rebuild the active set: wake exactly the routers holding routable work.
	// This is a subset of the original run's awake set containing every
	// behaviorally relevant router — extra awake routers run no-op Cycles and
	// are dropped by compactGroup, so the wake set never affects results
	// (the conservative-wake contract).
	for i := range n.awake {
		n.awake[i] = false
	}
	for g := range n.activeG {
		n.activeG[g] = n.activeG[g][:0]
	}
	if n.schedOn {
		for _, r := range n.Routers {
			if r.HasRoutableWork() {
				n.wake(int32(r.ID))
			}
		}
	}
	return nil
}

// encodePacket appends one packet record. The record keeps the layout of
// the wide packet header the format was defined with: the packet size (the
// configured one — every packet has it), the total hop count (derived) and
// a delivery time, which is 0 for every packet still in the network.
func (n *Network) encodePacket(e *simcore.Enc, p *packet.Packet) {
	e.U64(uint64(p.ID))
	e.Int(n.Cfg.PacketSize)
	e.Int(int(p.Dst))
	e.Int(int(p.SrcGroup))
	e.Int(int(p.DstGroup))
	e.Int(int(p.ValiantGroup))
	e.I64(p.BlockedSince)
	e.Bool(p.GlobalMisrouted)
	e.Bool(p.LocalMisrouted)
	e.Bool(p.OnRing)
	e.I64(int64(p.Ring))
	e.Int(int(p.LocalHops))
	e.Int(int(p.GlobalHops))
	e.Int(int(p.Src))
	e.Int(int(p.MisrouteGroup))
	e.Int(p.TotalHops())
	e.Int(int(p.RingExits))
	e.Int(int(p.RingHops))
	e.I64(int64(p.Job))
	e.I64(p.Born)
	e.I64(p.Injected)
	e.I64(0) // delivery time
}

// decodePacket fills p from d and returns the packet's ID (0 on decode
// error). Every field is range-checked before it is narrowed into the
// packet: endpoints and groups against this network's topology (whose node
// and group counts Config.Validate bounds to the packet's int32 and int16
// fields), hop counters and the job slot against their field widths, and the
// derived total hop count and the delivery time against the values encode
// writes.
func (n *Network) decodePacket(d *simcore.Dec, p *packet.Packet) uint64 {
	id := d.U64()
	size := d.I64()
	dst := d.I64()
	srcGroup := d.I64()
	dstGroup := d.I64()
	valiant := d.I64()
	blocked := d.I64()
	globalMis := d.Bool()
	localMis := d.Bool()
	onRing := d.Bool()
	ring := d.I64()
	localHops := d.I64()
	globalHops := d.I64()
	src := d.I64()
	misGroup := d.I64()
	totalHops := d.I64()
	ringExits := d.I64()
	ringHops := d.I64()
	job := d.I64()
	born := d.I64()
	injected := d.I64()
	done := d.I64()
	if d.Err() != nil {
		return 0
	}
	nodes, groups := int64(n.Topo.Nodes), int64(n.Topo.G)
	switch {
	case id == 0:
		d.Fail("packet ID 0 (IDs start at 1)")
	case size != int64(n.Cfg.PacketSize):
		d.Fail("packet %d size %d != configured %d", id, size, n.Cfg.PacketSize)
	case src < 0 || src >= nodes || dst < 0 || dst >= nodes:
		d.Fail("packet %d endpoints %d→%d outside [0,%d)", id, src, dst, nodes)
	case srcGroup < 0 || srcGroup >= groups || dstGroup < 0 || dstGroup >= groups:
		d.Fail("packet %d group fields out of range", id)
	case valiant < -1 || valiant >= groups || misGroup < -1 || misGroup >= groups:
		d.Fail("packet %d intermediate-group fields out of range", id)
	case ring < -1 || ring > math.MaxInt8:
		d.Fail("packet %d ring %d outside int8", id, ring)
	case localHops < 0 || localHops > math.MaxInt16 || globalHops < 0 || globalHops > math.MaxInt16:
		d.Fail("packet %d hop classes %d/%d outside int16", id, localHops, globalHops)
	case ringHops < 0 || ringHops > math.MaxInt32:
		d.Fail("packet %d ring hops %d outside int32", id, ringHops)
	case ringExits < 0 || ringExits > math.MaxUint8:
		d.Fail("packet %d ring exits %d outside uint8", id, ringExits)
	case totalHops != localHops+globalHops+ringHops:
		d.Fail("packet %d total hops %d != %d local + %d global + %d ring", id, totalHops, localHops, globalHops, ringHops)
	case done != 0:
		d.Fail("packet %d carries delivery time %d (in-network packets have none)", id, done)
	case job < -1 || job >= int64(n.Stats.Jobs()) || job > math.MaxInt16:
		// -1 (untagged) is always valid; a tagged packet needs its slot to
		// exist in the attached generator's job table.
		d.Fail("packet %d job slot %d outside the %d enabled slots", id, job, n.Stats.Jobs())
	}
	if d.Err() != nil {
		return 0
	}
	*p = packet.Packet{
		BlockedSince:    blocked,
		Dst:             int32(dst),
		Src:             int32(src),
		SrcGroup:        int16(srcGroup),
		DstGroup:        int16(dstGroup),
		ValiantGroup:    int16(valiant),
		MisrouteGroup:   int16(misGroup),
		LocalHops:       int16(localHops),
		GlobalHops:      int16(globalHops),
		GlobalMisrouted: globalMis,
		LocalMisrouted:  localMis,
		OnRing:          onRing,
		Ring:            int8(ring),
		RingExits:       uint8(ringExits),
		Job:             int16(job),
		RingHops:        int32(ringHops),
		ID:              packet.ID(id),
		Born:            born,
		Injected:        injected,
	}
	return id
}
