package network

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"ofar/internal/core"
	"ofar/internal/packet"
	"ofar/internal/router"
	"ofar/internal/routing"
	"ofar/internal/simcore"
	"ofar/internal/stats"
	"ofar/internal/topology"
	"ofar/internal/trace"
	"ofar/internal/traffic"
)

type evKind uint8

const (
	evArrive evKind = iota
	evDrain
	evDrainDeliver
	evCredit
)

type event struct {
	pkt   *packet.Packet
	r     int32
	port  int16
	vc    int16
	phits int32
	kind  evKind
}

// schedEv is one deferred wheel insertion: a pool worker appends these to
// its group's outbox instead of touching the shared timing wheel, and the
// barrier merges the outboxes in ascending group order — which, for
// router-stage insertions, reproduces the inline ascending-router insertion
// order exactly (routers are numbered group-major), and for event-phase
// insertions produces only credit events, whose in-slot order is
// unobservable (credits commute and fold nothing).
type schedEv struct {
	ev    event
	delay int32
}

// Deferred event effects of a pooled event phase, recorded per due-event
// index and applied at the barrier in ascending index order — the order the
// inline loop applies them in, regardless of which group (or which worker)
// processed the event. fxNone slots are skipped.
const (
	fxNone uint8 = iota
	fxDeliver
	fxDrop
)

// genRec is one deferred generation event: a packet created by
// generateGroup (pkt != nil, ID not yet assigned) or a dead-destination drop
// that consumed a destination draw without allocating (pkt == nil).
// commitGenerate replays these in ascending (group, node) order to stamp IDs
// and fold the observable effects in per-node order.
type genRec struct {
	pkt  *packet.Packet
	node int32
	dst  int32
}

// groupScratch is one group's cross-shard channel: the wheel-insertion
// outbox, the generate-phase outbox and the counter deltas the group
// accumulates while the shared counters are off limits. A phase function
// given sh == nil runs inline on the Step caller and applies effects in
// place; given its group's scratch it may run on a pool worker. Padded to
// cache-line multiples so adjacent groups written by different workers
// never false-share.
type groupScratch struct {
	sched    []schedEv
	gen      []genRec
	inFlight int
	// Generate-phase counter deltas, merged into the run counters at the
	// barrier (their per-node interleaving is unobservable — only the
	// running Generated count is, and genRec replay reproduces it exactly).
	blocked    int64
	injected   int64
	congStalls int64
	_          [128 - 8*10]byte
}

// Network is one fully assembled simulated system.
type Network struct {
	Cfg     Config
	Topo    *topology.Dragonfly
	Routers []*router.Router
	Engine  router.Engine
	Rings   []*topology.Ring
	Stats   *stats.Run

	wheel *simcore.Wheel[event]

	// Packet allocation is split between a run-wide ID authority and
	// per-group memory shards: pool owns the ID sequence (and the
	// Outstanding counter snapshots carry), while poolG[g] owns the free
	// list and carve blocks that group g's sources allocate from and its
	// terminal packets recycle into — so concurrent group shards never touch
	// a shared allocator, and block-carve locality follows the group.
	pool  packet.Pool
	poolG []packet.Pool

	// trafficRNG[g] is group g's traffic stream, derived deterministically
	// from the run seed (one stream per dragonfly group). Nodes of group g
	// draw from stream g in ascending node order — the same sequence whether
	// the per-group loop runs inline or on a pool worker.
	trafficRNG []*simcore.RNG
	pending    []pqueue
	gen        traffic.Generator
	genLocal   bool // generator implements traffic.GroupLocalGenerator
	groupNodes int  // nodes per group (Topo.P * Topo.A)
	now        int64
	usePB      bool
	inFlight   int

	congestionOn bool
	congestionTh float64

	// Fault injection (Config.Faults): the schedule sorted by firing order,
	// the cursor of the next unapplied fault, and the liveness masks the
	// event loop consults. The masks are nil when no faults are configured,
	// keeping the fault-free hot path untouched.
	faults     []Fault
	faultIdx   int
	deadRouter []bool
	deadNode   []bool

	// Worker pool (Config.PoolWidth() > 1): a persistent pool (see pool.go)
	// whose unit of work is one dragonfly group, per-worker engines (clones
	// when the engine carries scratch state), the per-router grant buffers a
	// pooled router stage fills for the barrier, and the cutover below which
	// a phase runs inline on the caller's goroutine (math.MaxInt without a
	// pool).
	workers    int
	workerEng  []router.Engine
	grantBuf   [][]router.Grant
	workerPool *stepPool
	cutover    int

	// Active-set scheduler (on unless Config.DisableActivitySched): only
	// routers that can possibly produce a grant or observable side effect
	// run Cycle. A router is awake while it holds a routable buffer head;
	// handle (arrivals, drain completions) and generate (injections) wake
	// routers, and compactGroup drops the ones whose work has drained. The
	// active set is kept per dragonfly group, so each group's router stage
	// compacts and iterates only its own list.
	schedOn bool
	awake   []bool    // router is on its group's active list
	activeG [][]int32 // per-group awake router ids (sorted by compactGroup)
	allIdx  []int32   // 0..Routers-1, the full iteration order without the scheduler

	// Group partition of a pooled event phase (the inline loop processes the
	// due list directly in ascending order). dueG holds per-group indices
	// into the cycle's due list; fxKind/fxPkt are the per-index deferred
	// effects applied in due order at the barrier; gs carries each group's
	// outbox.
	nGroups   int
	groupSize int // routers per group (Topo.A)
	dueG      [][]int32
	curDue    []event // the due list being processed (pool workers read it)
	fxKind    []uint8
	fxPkt     []*packet.Packet
	gs        []groupScratch

	// Grant digest (tests): FNV-1a fold of every committed grant and every
	// delivery, for cheap bit-equivalence checks between engines.
	digestOn    bool
	digest      uint64
	digestCount int64

	// Grant log (tests): explicit record of committed grants, capped at
	// logCap events.
	grantLog []GrantEvent
	logCap   int

	// Path tracing (diagnostics/tests): when sampling is enabled, every
	// N-th generated packet records its full hop sequence.
	traceEvery int
	traces     map[packet.ID]*Trace

	// Job-aware accounting (SetGenerator with a traffic.JobAware source):
	// node → job slot, consulted once per generated packet to tag it. Nil
	// under plain generators, keeping their hot path untouched.
	jobOf []int16

	// Packet-trace recorder (SetTraceRecorder): every generated packet —
	// including dead-destination drops, which consume a destination draw —
	// appends one (cycle, src, dst, size) record. Retracted generation
	// attempts are not recorded; they inject nothing.
	rec *trace.Recorder

	// CongestionStalls counts node-cycles in which the congestion manager
	// blocked an injection.
	CongestionStalls int64

	// Per-phase Step timing (EnablePhaseTimings): wall-clock nanoseconds
	// accumulated per Step phase. Off by default — the flag costs one branch
	// per Step; when on, each Step pays a handful of clock reads.
	timingOn bool
	phaseNs  PhaseNanos
}

type pqueue struct {
	q    []*packet.Packet
	head int
}

func (p *pqueue) len() int { return len(p.q) - p.head }
func (p *pqueue) push(x *packet.Packet) {
	p.q = append(p.q, x)
}
func (p *pqueue) peek() *packet.Packet {
	if p.len() == 0 {
		return nil
	}
	return p.q[p.head]
}
func (p *pqueue) pop() *packet.Packet {
	x := p.q[p.head]
	p.q[p.head] = nil
	p.head++
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	} else if p.head > 64 && p.head*2 >= len(p.q) {
		n := copy(p.q, p.q[p.head:])
		for i := n; i < len(p.q); i++ {
			p.q[i] = nil
		}
		p.q, p.head = p.q[:n], 0
	}
	return x
}

// New assembles a network from a configuration. A traffic generator must be
// attached with SetGenerator before stepping.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := topology.New(cfg.P, cfg.A, cfg.H, cfg.Groups)
	if err != nil {
		return nil, err
	}
	n := &Network{Cfg: cfg, Topo: topo}

	if cfg.Ring != RingNone {
		rings, err := topo.HamiltonianRings(cfg.NumRings)
		if err != nil {
			return nil, fmt.Errorf("network: escape ring construction: %w", err)
		}
		n.Rings = rings
	}

	switch cfg.Routing {
	case MIN:
		n.Engine = routing.NewMinimal(topo)
	case VAL:
		n.Engine = routing.NewValiant(topo)
	case UGAL:
		n.Engine = routing.NewUGAL(topo, cfg.Adaptive)
	case PAR:
		n.Engine = routing.NewPAR(topo, cfg.Adaptive)
	case PB:
		n.Engine = routing.NewPB(topo, cfg.Adaptive)
		n.usePB = true
	case OFAR, OFARL:
		oc := cfg.OFAR
		oc.LocalMisroute = cfg.Routing == OFAR
		n.Engine = core.New(topo, oc)
	}

	// Input-buffer VC profiles per (router, input port); escape VCs of
	// embedded rings are appended to the canonical profile of the links
	// the ring traverses.
	nPorts := topo.RouterPorts
	if cfg.Ring == RingPhysical {
		nPorts += cfg.NumRings
	}
	type prof struct {
		caps []int
		ring []int
	}
	profs := make([][]prof, topo.Routers)
	mkProf := func(vcs, buf int, ring int) prof {
		p := prof{caps: make([]int, vcs), ring: make([]int, vcs)}
		for i := 0; i < vcs; i++ {
			p.caps[i] = buf
			p.ring[i] = ring
		}
		return p
	}
	for r := 0; r < topo.Routers; r++ {
		profs[r] = make([]prof, nPorts)
		for port := 0; port < topo.RouterPorts; port++ {
			kind, _, _ := topo.Peer(r, port)
			switch kind {
			case topology.PortNode:
				profs[r][port] = mkProf(cfg.InjVCs, cfg.InjBuf, -1)
			case topology.PortLocal:
				profs[r][port] = mkProf(cfg.LocalVCs, cfg.LocalBuf, -1)
			case topology.PortGlobal:
				profs[r][port] = mkProf(cfg.GlobalVCs, cfg.GlobalBuf, -1)
			case topology.PortNone:
				profs[r][port] = prof{}
			}
		}
	}
	if cfg.Ring == RingEmbedded {
		for j, rg := range n.Rings {
			for r := 0; r < topo.Routers; r++ {
				out := rg.EmbeddedPort(r)
				_, peer, peerPort := topo.Peer(r, out)
				pp := &profs[peer][peerPort]
				pp.caps = append(pp.caps, cfg.RingBuf)
				pp.ring = append(pp.ring, j)
			}
		}
	}
	if cfg.Ring == RingPhysical {
		for j := range n.Rings {
			for r := 0; r < topo.Routers; r++ {
				profs[r][topo.RouterPorts+j] = mkProf(cfg.RingVCs, cfg.RingBuf, j)
			}
		}
	}

	// Flag boards for PB (one per group).
	var boards []*router.FlagBoard
	if n.usePB {
		boards = make([]*router.FlagBoard, topo.G)
		for g := range boards {
			boards[g] = router.NewFlagBoard(topo.A*topo.H, cfg.Adaptive.PBDelay)
		}
	}

	// One traffic stream per dragonfly group, derived before the router
	// streams so the whole derivation order is a pure function of the seed
	// and the group count. (This replaced a single shared stream; the switch
	// is a physics change — same distributions, different draws — visible in
	// EngineDigest(), which is the point: caches key on it.)
	rootRNG := simcore.NewRNG(cfg.Seed)
	n.trafficRNG = make([]*simcore.RNG, topo.G)
	for g := range n.trafficRNG {
		n.trafficRNG[g] = rootRNG.Derive(0x7aff1c ^ uint64(g))
	}

	// Routers are constructed group by group into contiguous []Router slabs,
	// each group's slices carved from a private, exactly sized arena: one
	// dragonfly group — the unit of work of every Step phase — then
	// occupies a contiguous, cache-dense region instead of
	// ~a·(2+ports·(4+vcs)) scattered heap objects. PAR mutates packet
	// headers mid-Route and stays uncached; a CacheableEngine reports its
	// Route read sets, so its routers memoize decisions (Validate
	// guarantees ≤ 64 ports).
	_, cacheable := n.Engine.(router.CacheableEngine)
	routeCache := cacheable && !cfg.DisableRouteCache
	n.Routers = make([]*router.Router, topo.Routers)
	routerSlab := make([]router.Router, topo.Routers)
	sizer := router.NewSizer()
	params := make([]router.Params, topo.A)
	for r := 0; r < topo.Routers; r++ {
		ports := make([]router.PortSpec, nPorts)
		for port := 0; port < topo.RouterPorts; port++ {
			kind, peer, peerPort := topo.Peer(r, port)
			ps := router.PortSpec{Kind: kind, Latency: 1}
			switch kind {
			case topology.PortNode:
				ps.Peer, ps.PeerPort = -1, -1
				ps.UpRouter, ps.UpPort = -1, -1
				ps.InCaps, ps.InRing = profs[r][port].caps, profs[r][port].ring
				ps.OutCaps, ps.OutRing = []int{cfg.PacketSize}, []int{-1}
			case topology.PortNone:
				ps.Peer, ps.PeerPort = -1, -1
				ps.UpRouter, ps.UpPort = -1, -1
			default:
				ps.Peer, ps.PeerPort = peer, peerPort
				ps.UpRouter, ps.UpPort = peer, peerPort
				ps.Latency = cfg.LocalLatency
				if kind == topology.PortGlobal {
					ps.Latency = cfg.GlobalLatency
				}
				ps.InCaps, ps.InRing = profs[r][port].caps, profs[r][port].ring
				ps.OutCaps, ps.OutRing = profs[peer][peerPort].caps, profs[peer][peerPort].ring
			}
			ports[port] = ps
		}
		var ringOuts []int
		if cfg.Ring == RingPhysical {
			for j, rg := range n.Rings {
				port := topo.RouterPorts + j
				lat := cfg.LocalLatency
				if rg.EdgeIsGlobal(r) {
					lat = cfg.GlobalLatency
				}
				prev := rg.Order[(rg.Pos(r)-1+len(rg.Order))%len(rg.Order)]
				ports[port] = router.PortSpec{
					Kind:     topology.PortRing,
					Peer:     rg.Next(r),
					PeerPort: port, // ring port index is uniform across routers
					UpRouter: prev,
					UpPort:   port,
					Latency:  lat,
					InCaps:   profs[r][port].caps, InRing: profs[r][port].ring,
					OutCaps: profs[rg.Next(r)][port].caps, OutRing: profs[rg.Next(r)][port].ring,
				}
				ringOuts = append(ringOuts, port)
			}
		} else if cfg.Ring == RingEmbedded {
			for _, rg := range n.Rings {
				ringOuts = append(ringOuts, rg.EmbeddedPort(r))
			}
		}
		var pb *router.FlagBoard
		if n.usePB {
			pb = boards[topo.GroupOf(r)]
		}
		n.Routers[r] = &routerSlab[r]
		params[topo.LocalIndex(r)] = router.Params{
			ID:          r,
			Topo:        topo,
			PktSize:     cfg.PacketSize,
			AllocIters:  cfg.AllocIters,
			RNG:         rootRNG.Derive(uint64(r) + 1),
			Ports:       ports,
			RingOuts:    ringOuts,
			PB:          pb,
			PBThreshold: cfg.Adaptive.PBThreshold,
		}
		if topo.LocalIndex(r) == topo.A-1 {
			first := r + 1 - topo.A
			router.NewGroup(routerSlab[first:r+1], params, routeCache, sizer)
		}
	}

	horizon := cfg.GlobalLatency
	if cfg.LocalLatency > horizon {
		horizon = cfg.LocalLatency
	}
	if cfg.PacketSize > horizon {
		horizon = cfg.PacketSize
	}
	n.wheel = simcore.NewWheel[event](horizon + 2)
	n.pending = make([]pqueue, topo.Nodes)
	n.Stats = stats.NewRun(topo.Nodes, cfg.PacketSize)
	if cfg.Congestion.Enabled {
		n.congestionOn = true
		n.congestionTh = cfg.Congestion.Threshold
		if n.congestionTh == 0 {
			n.congestionTh = 0.7
		}
	}
	n.schedOn = !cfg.DisableActivitySched
	n.awake = make([]bool, topo.Routers)
	n.allIdx = make([]int32, topo.Routers)
	for r := range n.allIdx {
		n.allIdx[r] = int32(r)
	}
	n.nGroups = topo.G
	n.groupSize = topo.A
	n.groupNodes = topo.P * topo.A
	n.poolG = make([]packet.Pool, topo.G)
	n.activeG = make([][]int32, topo.G)
	n.dueG = make([][]int32, topo.G)
	n.gs = make([]groupScratch, topo.G)
	if len(cfg.Faults) > 0 {
		if err := n.prepareFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	n.workers = cfg.PoolWidth()
	n.cutover = math.MaxInt
	if n.workers > 1 {
		n.grantBuf = make([][]router.Grant, topo.Routers)
		n.workerEng = make([]router.Engine, n.workers)
		n.workerEng[0] = n.Engine
		for w := 1; w < n.workers; w++ {
			if c, ok := n.Engine.(router.ConcurrentCloner); ok {
				n.workerEng[w] = c.CloneForWorker()
			} else {
				// Stateless engines (all baselines) are shared.
				n.workerEng[w] = n.Engine
			}
		}
		n.cutover = cfg.ParallelCutover
		if n.cutover == 0 {
			n.cutover = autoCutover(n.workers)
		}
		n.startPool(n.workers)
	}
	return n, nil
}

// autoCutover picks the work size (active routers, due events) below which
// a pooled network runs a phase inline on the caller's goroutine,
// calibrated from the machine and the worker count rather than measured at
// runtime (a measurement would make wall-clock behavior depend on warm-up
// noise; the formula keeps it reproducible). Two regimes:
//
//   - GOMAXPROCS == 1: a pool dispatch can never win — the caller computes
//     every group itself and then pays goroutine switches just to join the
//     parked workers — so the cutover is pinned above any possible work size
//     and every phase stays inline. (Tests that need the pool exercised
//     regardless set ParallelCutover = 1 explicitly.)
//
//   - multicore: a pool dispatch (wake + steal + join) costs a handful of
//     microseconds; one awake router's compute phase costs ~1–2 µs
//     (saturated h=3: ~170 µs over 114 routers). Splitting across w workers
//     saves (1−1/w) of the compute, so the break-even list length is
//     barrier / (cost·(1−1/w)) ≈ a few routers per worker; below it the
//     barrier is pure loss. 6·workers keeps a comfortable margin above
//     break-even without delaying the crossover past the loads where
//     parallelism starts paying (the BENCH_step.json sweep is the
//     calibration record).
//
// The cutover moves wall-clock time only; results are bit-identical on
// every machine either way.
func autoCutover(workers int) int {
	if runtime.GOMAXPROCS(0) < 2 {
		return math.MaxInt32
	}
	return 6 * workers
}

// SetGenerator attaches the traffic source. A job-aware source additionally
// sizes the per-job statistics and installs the node→job table used to tag
// every generated packet; attaching a plain generator clears both.
func (n *Network) SetGenerator(g traffic.Generator) {
	n.gen = g
	_, n.genLocal = g.(traffic.GroupLocalGenerator)
	n.jobOf = nil
	if ja, ok := g.(traffic.JobAware); ok {
		n.jobOf = make([]int16, n.Topo.Nodes)
		for node := range n.jobOf {
			n.jobOf[node] = int16(ja.JobOf(node))
		}
		names := make([]string, ja.NumJobs())
		nodes := make([]int, ja.NumJobs())
		for j := range names {
			names[j] = ja.JobName(j)
			nodes[j] = ja.JobNodes(j)
		}
		n.Stats.EnableJobs(names, nodes)
	}
}

// SetTraceRecorder attaches a packet-trace recorder (nil detaches). Every
// packet generated from here on appends one record; replaying the records
// with traffic.TraceReplay reproduces the run bit-identically.
func (n *Network) SetTraceRecorder(r *trace.Recorder) { n.rec = r }

// Generator returns the attached traffic source.
func (n *Network) Generator() traffic.Generator { return n.gen }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Step advances the simulation one cycle: deliver due events, generate and
// inject traffic, publish PB flags, then run routing and switch allocation
// on the routers that can do work this cycle (all of them when the activity
// scheduler is disabled). Every phase works group by group. With a worker
// pool (Config.PoolWidth() > 1), a phase whose work reaches the cutover runs
// its groups on the pool and merges their buffered effects at a barrier in
// the inline order; smaller phases run inline on the caller's goroutine,
// where the barrier could never pay for itself. Results are bit-identical
// either way.
func (n *Network) Step() {
	if n.timingOn {
		n.stepTimed()
		return
	}
	now := n.now
	if n.faultIdx < len(n.faults) {
		n.applyDueFaults(now)
	}
	if due := n.wheel.Advance(); len(due) > 0 {
		n.processDue(due, now)
	}
	if n.gen != nil {
		n.generate(now)
	}
	if n.usePB {
		n.publishPB(now)
	}
	n.routerStage(now)
	n.now++
}

// routerStage runs the routing/allocation phase of one cycle. The pool
// decision uses the pre-compaction active count (a superset of the
// compacted lists, so the decision is conservative) because compaction runs
// inside each group's share.
func (n *Network) routerStage(now int64) {
	act := n.ActiveRouters()
	if act == 0 {
		return
	}
	if act >= n.cutover {
		n.cycleShard(now)
		return
	}
	for g := 0; g < n.nGroups; g++ {
		n.cycleGroup(g, n.Engine, now, nil)
	}
}

// processDue runs the event phase over one cycle's due list. Inline, events
// are handled in ascending due order with effects applied in place. Pooled,
// the list is partitioned by target group and each group's events run on a
// worker; the result equals the inline one by three facts, each pinned by
// the golden tests:
//
//   - Router mutations commute across groups: an event targets exactly one
//     router (arrivals and drains touch input buffers, credits touch output
//     ports), and same-router events touch disjoint (port, VC) state.
//   - Observable effects (delivery folds and stats, fault drops) are not
//     applied in processing order: they are recorded per due index and
//     applied in ascending index order at the barrier — the inline order.
//   - Event-phase wheel insertions are credit events only; their in-slot
//     order differs from the inline order, but credits fold nothing and
//     AddCredit is commutative (a sum plus idempotent dirty bits), so no
//     digest, stat or future decision can observe the shuffle.
func (n *Network) processDue(due []event, now int64) {
	if len(due) < n.cutover {
		for i := range due {
			n.handle(due[i], int32(i), now, nil)
		}
		return
	}
	for g := range n.dueG {
		n.dueG[g] = n.dueG[g][:0]
	}
	gsz := int32(n.groupSize)
	for i := range due {
		g := due[i].r / gsz
		n.dueG[g] = append(n.dueG[g], int32(i))
	}
	if cap(n.fxKind) < len(due) {
		n.fxKind = make([]uint8, len(due))
		n.fxPkt = make([]*packet.Packet, len(due))
	} else {
		n.fxKind = n.fxKind[:len(due)]
		clear(n.fxKind)
		n.fxPkt = n.fxPkt[:len(due)]
	}
	n.curDue = due
	n.runShards(phaseHandle, now)
	n.curDue = nil
	// Commit the cross-shard channels in ascending group order: wheel
	// outboxes (credit refunds) and in-flight deltas.
	for g := range n.gs {
		sh := &n.gs[g]
		for _, se := range sh.sched {
			n.wheel.Schedule(int(se.delay), se.ev)
		}
		sh.sched = sh.sched[:0]
		n.inFlight += sh.inFlight
		sh.inFlight = 0
	}
	// Apply deferred effects in original due order (see above).
	for i, k := range n.fxKind {
		if k != fxNone {
			n.applyEffect(k, n.fxPkt[i], now)
			n.fxPkt[i] = nil
		}
	}
}

// applyEffect applies one event's observable effect: a delivery (digest
// fold, statistics, recycling) or a fault drop.
func (n *Network) applyEffect(kind uint8, p *packet.Packet, now int64) {
	if kind == fxDrop {
		n.dropPacket(p, now)
		return
	}
	if n.digestOn {
		// Folding (identity, latency) pins per-packet delivery times, not
		// just the grant sequence.
		n.fold(1, now, int64(p.Src), int64(p.Dst), p.Born, p.Injected)
	}
	n.Stats.OnDeliver(p.Born, p.Injected, now, p.TotalHops(), int(p.RingHops))
	if p.Job >= 0 {
		n.Stats.JobDelivered(int(p.Job), now-p.Born)
	}
	n.putPacket(p)
}

// sched inserts a wheel event directly (sh == nil: inline) or into the
// group's outbox (on a pool worker, where the shared wheel is off limits
// until the barrier).
func (n *Network) sched(sh *groupScratch, delay int, ev event) {
	if sh == nil {
		n.wheel.Schedule(delay, ev)
	} else {
		sh.sched = append(sh.sched, schedEv{ev: ev, delay: int32(delay)})
	}
}

// wake puts a router on the active list (idempotent). Callers are the three
// places that can create routable work: handle (arrivals and drain
// completions) and generate (injections). Waking conservatively is always
// safe — an awake router with no routable head runs a no-op Cycle and is
// dropped by the next compactGroup — whereas a missed wake would silently
// freeze the router's traffic, so every candidate event wakes its router.
func (n *Network) wake(r int32) {
	if !n.awake[r] {
		n.awake[r] = true
		g := r / int32(n.groupSize)
		n.activeG[g] = append(n.activeG[g], r)
	}
}

// ActiveRouters reports how many routers are currently on the activity
// scheduler's active list (every router when the scheduler is disabled).
// This is the quantity the router stage compares against the cutover
// (Config.ParallelCutover); exposed for diagnostics and calibration.
func (n *Network) ActiveRouters() int {
	if n.schedOn {
		total := 0
		for g := range n.activeG {
			total += len(n.activeG[g])
		}
		return total
	}
	return len(n.Routers)
}

// compactGroup drops routers with no routable buffer head from one group's
// active list and sorts the survivors by router index. Touches only
// group-owned state (the group's list and its routers' awake flags), so
// pool workers compact their claimed groups concurrently.
func (n *Network) compactGroup(g int) []int32 {
	keep := n.activeG[g][:0]
	for _, id := range n.activeG[g] {
		if n.Routers[id].HasRoutableWork() {
			keep = append(keep, id)
		} else {
			n.awake[id] = false
		}
	}
	slices.Sort(keep)
	n.activeG[g] = keep
	return keep
}

// publishPB refreshes the group flag boards. The boards store transitions,
// so only routers whose global-port occupancy moved since their last publish
// (PBDirty) need to recompute; the full sweep remains available for the
// scheduler-disabled path and produces identical reader-visible flags.
//
// Whenever the router stage can pool (the cutover does not exceed the
// router count), the O(routers) dirty scan runs on the pool: each worker
// publishes its claimed groups' boards. A group's board is written only by
// that group's routers (UpdatePBFlags sets the router's own link flags),
// each router writes disjoint flag indices, and nothing reads any board
// during this phase — so the sweep parallelizes with no outbox and no
// barrier merge, bit-identically.
func (n *Network) publishPB(now int64) {
	if len(n.Routers) >= n.cutover {
		n.runShards(phasePB, now)
		return
	}
	for g := 0; g < n.nGroups; g++ {
		n.publishPBGroup(g, now)
	}
}

// publishPBGroup republishes one group's flag board (inline or on a pool
// worker; see publishPB).
func (n *Network) publishPBGroup(g int, now int64) {
	lo := g * n.groupSize
	hi := lo + n.groupSize
	if n.schedOn {
		for r := lo; r < hi; r++ {
			if rt := n.Routers[r]; rt.PBDirty() {
				rt.UpdatePBFlags(now)
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		n.Routers[r].UpdatePBFlags(now)
	}
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step()
	}
}

// Drained reports whether the generator is exhausted and every generated
// packet was delivered or explicitly dropped by a fault.
func (n *Network) Drained() bool {
	return n.gen.Done() && n.Stats.Generated == n.Stats.Delivered+n.Stats.Dropped
}

// RunUntilDrained steps until the generator is exhausted and every packet
// has been delivered, or maxCycles elapse. It returns true when drained.
func (n *Network) RunUntilDrained(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if n.Drained() {
			return true
		}
		n.Step()
	}
	return n.Drained()
}

// Trace is the recorded journey of one packet.
type Trace struct {
	Src, Dst int
	Hops     []TraceHop
	Done     bool
	Dropped  bool // lost to an injected fault
}

// TraceHop is one crossbar transfer: the router, the output port taken and
// whether it was an escape-channel move.
type TraceHop struct {
	Router int
	Port   int
	VC     int
	Escape bool
	Cycle  int64
}

// EnableTracing records the full path of every N-th generated packet
// (N ≤ 1 traces everything). Intended for tests and debugging; tracing
// allocates per packet.
func (n *Network) EnableTracing(every int) {
	if every < 1 {
		every = 1
	}
	n.traceEvery = every
	n.traces = make(map[packet.ID]*Trace)
}

// Traces returns the recorded packet journeys (nil unless enabled).
func (n *Network) Traces() map[packet.ID]*Trace { return n.traces }

// GrantEvent is one committed crossbar transfer as recorded by the grant
// log: the granting router, the input buffer, the output assignment and the
// packet identity (source, destination, generation cycle — stable across
// engines, unlike pool-recycled pointers).
type GrantEvent struct {
	Cycle  int64 `json:"t"`
	Router int   `json:"r"`
	InPort int   `json:"ip"`
	InVC   int   `json:"iv"`
	Out    int   `json:"o"`
	VC     int   `json:"v"`
	Src    int   `json:"s"`
	Dst    int   `json:"d"`
	Born   int64 `json:"b"`
	Eject  bool  `json:"e,omitempty"`
}

// EnableGrantDigest folds every committed grant and every delivery into a
// running FNV-1a digest. Comparing digests after each cycle proves two runs
// produce identical grant sequences and packet latencies without storing
// the streams (the equivalence and golden-trace tests rely on this).
func (n *Network) EnableGrantDigest() {
	n.digestOn = true
	n.digest = fnvOffset
}

// GrantDigest returns the running digest and the number of events folded
// into it (grants + deliveries).
func (n *Network) GrantDigest() (uint64, int64) { return n.digest, n.digestCount }

// EnableGrantLog records up to max committed grants verbatim (the digest
// keeps covering everything beyond the cap). Intended for golden-trace
// tests; logging allocates.
func (n *Network) EnableGrantLog(max int) {
	n.logCap = max
	n.grantLog = make([]GrantEvent, 0, max)
	if !n.digestOn {
		n.EnableGrantDigest()
	}
}

// GrantLog returns the recorded grant events.
func (n *Network) GrantLog() []GrantEvent { return n.grantLog }

// FNV-1a, 64 bit.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func (n *Network) fold(vs ...int64) {
	h := n.digest
	for _, v := range vs {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h = (h ^ (x & 0xff)) * fnvPrime
			x >>= 8
		}
	}
	n.digest = h
	n.digestCount++
}

// handle processes one due event. Inline (sh == nil) it applies every
// effect in place. On a pool worker (sh is the event's group scratch) every
// write stays within the event's group — its router, the group's
// awake/activeG entries, the fx slot of due index idx — while wheel
// insertions and the in-flight delta go through sh, and deliveries and
// drops are only recorded for processDue's barrier.
func (n *Network) handle(ev event, idx int32, now int64, sh *groupScratch) {
	switch ev.kind {
	case evArrive:
		n.addInFlight(sh, -1)
		if n.deadRouter != nil && n.deadRouter[ev.r] {
			// The packet was launched before the router died; the link
			// delivered it into a void. No credit refund: the upstream port
			// is dead and its counters are frozen.
			n.effect(sh, idx, fxDrop, ev.pkt, now)
			return
		}
		if n.deadNode != nil && n.deadNode[ev.pkt.Dst] {
			// The destination died while the packet was en route. Drop it
			// here rather than let it chase an unreachable ejection port —
			// with a synthesized refund, since the buffer space it reserved
			// on this live router is never consumed.
			up := &n.Routers[ev.r].In[ev.port]
			if up.UpRouter >= 0 {
				n.sched(sh, 0, event{kind: evCredit, r: int32(up.UpRouter), port: int16(up.UpPort), vc: ev.vc, phits: int32(n.Cfg.PacketSize)})
			}
			n.effect(sh, idx, fxDrop, ev.pkt, now)
			return
		}
		n.Routers[ev.r].Arrive(int(ev.port), int(ev.vc), ev.pkt)
		if n.schedOn {
			n.wake(ev.r)
		}
	case evDrain, evDrainDeliver:
		r := n.Routers[ev.r]
		p, upR, upP := r.FinishDrain(int(ev.port), int(ev.vc))
		if n.schedOn {
			// The drain's end frees the input port and promotes any packet
			// queued behind the drained head; credits (evCredit) need no
			// wake because they cannot create a routable head on a router
			// that has none.
			n.wake(ev.r)
		}
		if ev.kind == evDrain {
			// The packet has fully left this buffer and is now only on the
			// link (its arrival event is pending); with link latencies ≥
			// packetSize-1 — true for all shipped configurations — this
			// keeps the conservation accounting exact.
			n.addInFlight(sh, 1)
		}
		if upR >= 0 && (n.deadRouter == nil || !n.deadRouter[ev.r]) {
			// Dead routers return no credits: their upstream ports are dead
			// with frozen counters — except a re-formed ring predecessor,
			// whose counters were re-derived against the new downstream
			// buffer and must not absorb refunds for the old one.
			lat := n.Routers[upR].Out[upP].Latency
			n.sched(sh, lat-1, event{kind: evCredit, r: int32(upR), port: int16(upP), vc: ev.vc, phits: int32(r.PktSize)})
		}
		if ev.kind == evDrainDeliver {
			n.effect(sh, idx, fxDeliver, p, now)
		}
	case evCredit:
		n.Routers[ev.r].AddCredit(int(ev.port), int(ev.vc), int(ev.phits))
	}
}

// addInFlight moves the in-flight link count in place (sh == nil) or in the
// group's delta, merged at the barrier.
func (n *Network) addInFlight(sh *groupScratch, d int) {
	if sh == nil {
		n.inFlight += d
	} else {
		sh.inFlight += d
	}
}

// effect applies a delivery or drop in place (sh == nil) or records it in
// due slot idx for processDue's barrier.
func (n *Network) effect(sh *groupScratch, idx int32, kind uint8, p *packet.Packet, now int64) {
	if sh == nil {
		n.applyEffect(kind, p, now)
		return
	}
	n.fxKind[idx] = kind
	n.fxPkt[idx] = p
}

// generate runs the injection front-end for one cycle: generateGroup for
// every group, inline in ascending group order or on the pool, then
// commitGenerate. The pooled path equals the inline one by three facts,
// mirrored from the processDue argument and pinned by the golden tests:
//
//   - Per-node work is group-local: Next/Retract draw from the group's own
//     stream (and, for GroupLocalGenerator sources, touch only per-node or
//     commutative-atomic generator state), the pending queue and the
//     injection router belong to the node's own group, and packets come from
//     the group's own pool shard. Nothing one group does can change what
//     another group generates or injects this cycle.
//   - Observable effects are not applied in processing order: packet IDs,
//     Stats counters, digest folds, trace-recorder appends and job
//     accounting are recorded per group (genRec) and replayed at the barrier
//     in ascending (group, node) order — including the running Generated
//     count the path-trace sampler reads.
//   - Counter deltas (SourceBlocked, Injected, CongestionStalls) are plain
//     sums with no intermediate observer, so per-group accumulation plus an
//     ordered merge is invisible.
//
// The phase has no per-cycle work count to compare against the cutover
// (every node is probed every cycle), so it pools whenever the router stage
// could ever pool: values of ParallelCutover above the router count keep
// generation inline too, and single-P hosts stay inline via autoCutover.
// Generators without the GroupLocalGenerator marker (Burst, JobSet — shared
// plain-int progress counters) always run inline.
func (n *Network) generate(now int64) {
	if n.genLocal && len(n.Routers) >= n.cutover {
		n.runShards(phaseGenerate, now)
	} else {
		for g := 0; g < n.nGroups; g++ {
			n.generateGroup(g, n.Engine, now)
		}
	}
	n.commitGenerate(now)
}

// generateGroup generates and injects for every node of group g in
// ascending node order, inline or on a pool worker that has claimed the
// group. Injection side effects (router state, wake, AtInjection with the
// given engine) are group-owned and applied at the node's turn; every other
// observable effect is buffered in the group scratch for commitGenerate —
// packets leave the group's pool shard without an ID, stats, digest, trace
// and job effects become genRec entries, and counter deltas accumulate.
func (n *Network) generateGroup(g int, eng router.Engine, now int64) {
	topo := n.Topo
	rng := n.trafficRNG[g]
	sh := &n.gs[g]
	lo := g * n.groupNodes
	hi := lo + n.groupNodes
	for node := lo; node < hi; node++ {
		if n.deadNode != nil && n.deadNode[node] {
			continue // dead sources neither draw traffic nor inject
		}
		pq := &n.pending[node]
		if dst, ok := n.gen.Next(rng, node, now); ok {
			if n.deadNode != nil && n.deadNode[dst] {
				sh.gen = append(sh.gen, genRec{node: int32(node), dst: int32(dst)})
			} else if pq.len() >= n.Cfg.PendingCap {
				n.gen.Retract(node)
				sh.blocked++
			} else {
				p := n.poolG[g].GetBlank()
				p.Src, p.Dst = int32(node), int32(dst)
				p.SrcGroup = int16(g)
				p.DstGroup = int16(topo.GroupOfNode(dst))
				p.Born = now
				if n.jobOf != nil {
					p.Job = n.jobOf[node]
				}
				pq.push(p)
				sh.gen = append(sh.gen, genRec{pkt: p, node: int32(node), dst: int32(dst)})
			}
		}
		if p := pq.peek(); p != nil {
			r := n.Routers[topo.RouterOf(node)]
			if n.congestionOn && r.CanonicalOccupancy() >= n.congestionTh {
				sh.congStalls++
				continue
			}
			port := topo.NodePort(topo.NodeSlot(node))
			if vc, ok := r.InjectionSpace(port, n.Cfg.PacketSize); ok {
				pq.pop()
				r.Inject(port, vc, p, now)
				if n.schedOn {
					n.wake(int32(r.ID))
				}
				eng.AtInjection(r, p, now)
				sh.injected++
			}
		}
	}
}

// commitGenerate is the barrier of the generate phase: walk groups in
// ascending order replaying each group's genRec entries in node order —
// stamping packet IDs from the run-wide sequence and folding the observable
// effects — then merge the counter deltas.
func (n *Network) commitGenerate(now int64) {
	for g := 0; g < n.nGroups; g++ {
		sh := &n.gs[g]
		for i := range sh.gen {
			rec := &sh.gen[i]
			if rec.pkt == nil {
				// The destination is down; the source learns immediately
				// (its NIC would). Generated and Dropped move together so
				// conservation holds without allocating a packet.
				n.Stats.Generated++
				n.Stats.Dropped++
				n.Stats.NoteAffectedFlow(int(rec.node), int(rec.dst))
				if n.jobOf != nil {
					j := int(n.jobOf[rec.node])
					n.Stats.JobGenerated(j)
					n.Stats.JobDropped(j)
				}
				if n.rec != nil {
					n.rec.Add(now, int(rec.node), int(rec.dst), n.Cfg.PacketSize)
				}
				if n.digestOn {
					n.fold(2, now, int64(rec.node), int64(rec.dst), now)
				}
				continue
			}
			p := rec.pkt
			p.ID = n.pool.NextID()
			rec.pkt = nil
			if n.jobOf != nil {
				n.Stats.JobGenerated(int(p.Job))
			}
			if n.rec != nil {
				n.rec.Add(now, int(rec.node), int(rec.dst), n.Cfg.PacketSize)
			}
			if n.traceEvery > 0 && n.Stats.Generated%int64(n.traceEvery) == 0 {
				n.traces[p.ID] = &Trace{Src: int(rec.node), Dst: int(rec.dst)}
			}
			n.Stats.Generated++
		}
		sh.gen = sh.gen[:0]
		n.Stats.SourceBlocked += sh.blocked
		n.Stats.Injected += sh.injected
		n.CongestionStalls += sh.congStalls
		sh.blocked, sh.injected, sh.congStalls = 0, 0, 0
	}
}

// putPacket recycles a terminal packet into its source group's pool shard,
// keeping the free list (and the block-carve locality it preserves) with the
// group that allocated the packet. Only ever called on the Step caller
// (delivery folds, fault drops).
func (n *Network) putPacket(p *packet.Packet) {
	n.poolG[p.SrcGroup].Put(p)
}

// commitSched schedules a committed grant's future events: into the wheel
// directly (sh == nil: inline) or into the group outbox (on a pool worker),
// so a pooled router stage emits each group's insertions in parallel and
// its barrier reduces to outbox merging plus commitStats.
func (n *Network) commitSched(r *router.Router, g *router.Grant, now int64, sh *groupScratch) {
	p := g.Pkt
	if g.Eject {
		n.sched(sh, r.PktSize-1, event{kind: evDrainDeliver, r: int32(r.ID), port: int16(g.InPort), vc: int16(g.InVC)})
	} else {
		out := &r.Out[g.Req.Out]
		n.sched(sh, out.Latency, event{kind: evArrive, pkt: p, r: int32(out.Peer), port: int16(out.PeerPort), vc: int16(g.Req.VC)})
		n.sched(sh, r.PktSize-1, event{kind: evDrain, r: int32(r.ID), port: int16(g.InPort), vc: int16(g.InVC)})
	}
}

// commitStats applies a committed grant's observable effects — digest,
// grant log, traces, statistics, fault-reroute attribution — on the Step
// caller in ascending router order: inline right after commitSched, or at
// the pooled router stage's barrier.
func (n *Network) commitStats(r *router.Router, g *router.Grant, now int64) {
	p := g.Pkt
	if n.digestOn {
		n.fold(0, now, int64(r.ID), int64(g.InPort), int64(g.InVC),
			int64(g.Req.Out), int64(g.Req.VC), int64(p.Src), int64(p.Dst), p.Born)
		if len(n.grantLog) < n.logCap {
			n.grantLog = append(n.grantLog, GrantEvent{
				Cycle: now, Router: r.ID, InPort: g.InPort, InVC: g.InVC,
				Out: g.Req.Out, VC: g.Req.VC,
				Src: int(p.Src), Dst: int(p.Dst), Born: p.Born, Eject: g.Eject,
			})
		}
	}
	if n.traceEvery > 0 {
		if tr, ok := n.traces[p.ID]; ok {
			tr.Hops = append(tr.Hops, TraceHop{
				Router: r.ID, Port: g.Req.Out, VC: g.Req.VC,
				Escape: g.Req.Escape, Cycle: now,
			})
			if g.Eject {
				tr.Done = true
			}
		}
	}
	n.Stats.AddUtilization(r.ID, g.Req.Out, r.PktSize)
	if g.Req.SetGlobalMis {
		n.Stats.GlobalMisroutes++
	}
	if g.Req.SetLocalMis {
		n.Stats.LocalMisroutes++
	}
	if g.Req.EnterRing {
		n.Stats.RingEnters++
	}
	if g.Req.ExitRing {
		n.Stats.RingExits++
	}
	if g.Req.Escape && !g.Req.EnterRing {
		n.Stats.RingHops++
	}
	if n.faultIdx > 0 && (g.Req.SetGlobalMis || g.Req.SetLocalMis || g.Req.EnterRing) &&
		r.OutputDead(n.Topo.MinimalPort(r.ID, int(p.Dst))) {
		// The packet left its minimal path while the minimal output here is
		// dead: the fault, not ordinary congestion, forced the detour.
		n.Stats.FaultReroutes++
		n.Stats.NoteAffectedFlow(int(p.Src), int(p.Dst))
	}
}

// groupList returns the iteration list of one group: its compacted active
// list under the scheduler, or the group's full router range without it.
func (n *Network) groupList(g int) []int32 {
	if n.schedOn {
		return n.activeG[g]
	}
	lo := g * n.groupSize
	hi := lo + n.groupSize
	if hi > len(n.allIdx) {
		hi = len(n.allIdx)
	}
	return n.allIdx[lo:hi]
}

// cycleGroup runs one group's router stage: compact the group's active
// list, Cycle each router with the given engine and commit its grants —
// fully in place when inline (sh == nil). On a pool worker only the wheel
// insertions are emitted, into sh; the grants are kept in grantBuf for
// cycleShard's barrier. Everything a worker writes — the group's active
// list, its routers, their grantBuf rows, the outbox — is owned by this
// group's claim.
func (n *Network) cycleGroup(g int, eng router.Engine, now int64, sh *groupScratch) {
	if n.schedOn {
		if len(n.activeG[g]) == 0 {
			return
		}
		n.compactGroup(g)
	}
	for _, i := range n.groupList(g) {
		r := n.Routers[i]
		grants := r.Cycle(eng, now)
		if sh != nil {
			n.grantBuf[i] = grants
		}
		for j := range grants {
			n.commitSched(r, &grants[j], now, sh)
			if sh == nil {
				n.commitStats(r, &grants[j], now)
			}
		}
	}
}

// cycleShard is the pooled router stage: the pool claims whole groups
// (compute + per-group commitSched in parallel), then the barrier walks
// groups in ascending order committing stats in router order and merging
// each group's outbox — reproducing the inline ascending-router
// wheel-insertion and fold order exactly, for any worker count.
//
// grantBuf entries alias the per-router grant slices that Cycle itself
// reuses across cycles; they are never cleared, because the barrier reads
// only the entries of routers on this cycle's lists, each freshly written
// by its group's share.
func (n *Network) cycleShard(now int64) {
	n.runShards(phaseCycle, now)
	for g := 0; g < n.nGroups; g++ {
		for _, i := range n.groupList(g) {
			r := n.Routers[i]
			grants := n.grantBuf[i]
			for j := range grants {
				n.commitStats(r, &grants[j], now)
			}
		}
		sh := &n.gs[g]
		for _, se := range sh.sched {
			n.wheel.Schedule(int(se.delay), se.ev)
		}
		sh.sched = sh.sched[:0]
	}
}

// FailRingEdge breaks escape ring `ring` at the outgoing edge of `router`
// (§VII: "OFAR could block the system with more than a single failure in
// its Hamiltonian ring" — multiple embedded rings restore protection).
func (n *Network) FailRingEdge(ring, router int) {
	n.Routers[router].FailRing(ring)
}

// UtilizationByKind summarizes link utilization for one port class
// (requires Stats.EnableUtilization before the run). Unwired ports are
// excluded; physical escape-ring ports are reported under PortRing.
func (n *Network) UtilizationByKind(kind topology.PortKind) stats.UtilizationSummary {
	var counters []int64
	for _, r := range n.Routers {
		for port := range r.Out {
			if r.Out[port].Kind != kind {
				continue
			}
			counters = append(counters, n.Stats.Utilization(r.ID, port))
		}
	}
	return stats.SummarizeUtilization(counters, n.now)
}

// BufferedPackets counts packets stored in router buffers (a packet counts
// once per buffer it currently occupies; with link latencies ≥ packet size,
// as in every shipped configuration, that is exactly once).
func (n *Network) BufferedPackets() int {
	total := 0
	for _, r := range n.Routers {
		for i := range r.In {
			for vc := range r.In[i].VCs {
				total += r.In[i].VCs[vc].Len()
			}
		}
	}
	return total
}

// PendingPackets counts packets waiting in source queues.
func (n *Network) PendingPackets() int {
	total := 0
	for i := range n.pending {
		total += n.pending[i].len()
	}
	return total
}

// InFlightPackets counts packets currently traversing links.
func (n *Network) InFlightPackets() int { return n.inFlight }

// CheckConservation verifies that every generated packet is accounted for:
// delivered, explicitly dropped by a fault, waiting at a source, buffered in
// a router, or on a link.
func (n *Network) CheckConservation() error {
	inNet := int64(n.BufferedPackets() + n.InFlightPackets() + n.PendingPackets())
	if n.Stats.Generated != n.Stats.Delivered+n.Stats.Dropped+inNet {
		return fmt.Errorf("network: conservation violated: generated=%d delivered=%d dropped=%d in-system=%d",
			n.Stats.Generated, n.Stats.Delivered, n.Stats.Dropped, inNet)
	}
	if n.jobOf != nil {
		// Under a job-aware source every packet is tagged, so the per-job
		// terminal counters must partition the aggregates exactly.
		if err := n.Stats.CheckJobConservation(); err != nil {
			return err
		}
	}
	return nil
}
