// Package traffic provides the synthetic traffic patterns and injection
// processes of the paper's evaluation (§V): uniform random (UN),
// adversarial (ADV+N), weighted mixes, Bernoulli steady-state sources,
// fixed-size bursts, and transient pattern switches.
package traffic

import (
	"fmt"

	"ofar/internal/simcore"
	"ofar/internal/topology"
)

// Pattern chooses the destination node for a packet generated at src.
type Pattern interface {
	Name() string
	Dest(rng *simcore.RNG, src int) int
}

// Uniform selects any node except the source itself (the source group is
// included, matching §V).
type Uniform struct{ d *topology.Dragonfly }

// NewUniform returns the UN pattern.
func NewUniform(d *topology.Dragonfly) *Uniform { return &Uniform{d: d} }

// Name implements Pattern.
func (u *Uniform) Name() string { return "UN" }

// Dest implements Pattern.
func (u *Uniform) Dest(rng *simcore.RNG, src int) int {
	dst := rng.Intn(u.d.Nodes - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// Adv is the ADV+N pattern: every source in group i sends to a random node
// of group i+N (mod G).
type Adv struct {
	d *topology.Dragonfly
	n int
}

// NewAdv returns the ADV+n pattern.
func NewAdv(d *topology.Dragonfly, n int) *Adv { return &Adv{d: d, n: n} }

// Name implements Pattern.
func (a *Adv) Name() string { return fmt.Sprintf("ADV+%d", a.n) }

// Offset returns the group offset N.
func (a *Adv) Offset() int { return a.n }

// Dest implements Pattern.
func (a *Adv) Dest(rng *simcore.RNG, src int) int {
	g := (a.d.GroupOfNode(src) + a.n) % a.d.G
	perGroup := a.d.P * a.d.A
	return g*perGroup + rng.Intn(perGroup)
}

// Mix draws each packet's pattern from a weighted set, used for the burst
// mixes MIX1/2/3 (§VI-C).
type Mix struct {
	name     string
	patterns []Pattern
	cum      []float64
}

// NewMix builds a weighted mixture; weights need not sum to 1.
func NewMix(name string, patterns []Pattern, weights []float64) *Mix {
	if len(patterns) == 0 || len(patterns) != len(weights) {
		panic("traffic: mix needs matching patterns and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("traffic: negative mix weight")
		}
		total += w
	}
	m := &Mix{name: name, patterns: patterns, cum: make([]float64, len(weights))}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		m.cum[i] = acc
	}
	return m
}

// Name implements Pattern.
func (m *Mix) Name() string { return m.name }

// Dest implements Pattern.
func (m *Mix) Dest(rng *simcore.RNG, src int) int {
	x := rng.Float64()
	for i, c := range m.cum {
		if x < c {
			return m.patterns[i].Dest(rng, src)
		}
	}
	return m.patterns[len(m.patterns)-1].Dest(rng, src)
}

// Generator produces packets at the sources. Next is called once per node
// per cycle; it returns the destination of a new packet or ok == false.
// Accepted reports whether the network accepted the previous Next result —
// burst generators must not lose packets to source-queue backpressure.
//
// Stream discipline: the rng passed to Next is a per-dragonfly-group stream
// derived deterministically from the run seed — every node of group g draws
// from stream g, in ascending node order within a cycle. The contract stays
// per-node; generators never see which stream they are handed. The network
// may call Next for nodes of *different* groups concurrently (one goroutine
// per group, each with its own stream), but only for generators that opt in
// via GroupLocalGenerator; everything else runs the serial per-group loop
// with identical draws, so results do not depend on which path executed.
type Generator interface {
	Name() string
	Next(rng *simcore.RNG, node int, now int64) (dst int, ok bool)
	// Retract undoes the last Next for a node whose pending queue was full;
	// only generators with a finite budget need to do anything.
	Retract(node int)
	// Done reports whether the generator has produced everything it ever
	// will (always false for open-loop sources).
	Done() bool
}

// StatefulGenerator is implemented by generators that carry mutable progress
// state (currently only Burst). Network snapshots include the state so a
// restored run resumes the source exactly where it stopped; generators not
// implementing this are stateless by contract — calling Next mutates nothing
// but the RNG, which the network snapshots separately.
type StatefulGenerator interface {
	Generator
	EncodeState(e *simcore.Enc)
	DecodeState(d *simcore.Dec) error
}

// CloneableGenerator is implemented by stateful generators that can produce
// an independent deep copy for a forked simulation. Stateless generators
// need no clone: Fork shares them, which is safe because their Next only
// reads immutable pattern state.
type CloneableGenerator interface {
	Generator
	CloneGenerator() Generator
}

// GroupLocalGenerator marks generators whose Next/Retract calls for one node
// touch no state shared with nodes of any other dragonfly group — either
// purely per-node state (cursors, budgets indexed by node) or commutative
// atomics read only at quiescence. The network shards its injection
// front-end by group only for generators carrying this marker; a concurrent
// Next is then a data-race-free reordering whose observable effects the
// commit barrier replays in serial (group, node) order. Burst and JobSet do
// NOT qualify: their shared progress counters (`emitted`) are plain ints
// mutated on every Next, so they keep the serial per-group loop — which
// draws from the identical per-group streams, keeping results bit-identical
// across the two paths.
type GroupLocalGenerator interface {
	Generator
	// GroupLocal is a marker; implementations do nothing.
	GroupLocal()
}

// JobAware is implemented by generators that partition the sources into
// jobs (JobSet). The network uses it to tag every generated packet with its
// source's job slot and to size the per-job statistics, so experiments can
// report per-job latency, throughput and drop counts instead of only the
// aggregate. The node→job assignment must be static for the lifetime of a
// run (placement happens at construction).
type JobAware interface {
	Generator
	// NumJobs returns the number of job slots, including the background
	// slot when background traffic is configured. It is at most
	// packet.MaxJobSlots: packets carry their slot in an int16.
	NumJobs() int
	// JobOf returns the job slot of a node, or -1 when the node belongs to
	// no job and generates nothing.
	JobOf(node int) int
	// JobName returns the display name of a job slot.
	JobName(j int) string
	// JobNodes returns how many nodes a job slot occupies.
	JobNodes(j int) int
}

// Bernoulli is the steady-state source: each node independently generates a
// packet with probability load/packetSize per cycle, so the offered load is
// `load` phits/(node·cycle).
type Bernoulli struct {
	pattern Pattern
	prob    float64
}

// NewBernoulli builds an open-loop source with the given offered load in
// phits/(node·cycle) and packet size in phits.
func NewBernoulli(pattern Pattern, load float64, packetSize int) *Bernoulli {
	return &Bernoulli{pattern: pattern, prob: load / float64(packetSize)}
}

// Name implements Generator.
func (b *Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%s)", b.pattern.Name()) }

// Next implements Generator.
func (b *Bernoulli) Next(rng *simcore.RNG, node int, _ int64) (int, bool) {
	if !rng.Bernoulli(b.prob) {
		return 0, false
	}
	return b.pattern.Dest(rng, node), true
}

// Retract implements Generator; open-loop sources drop the packet.
func (b *Bernoulli) Retract(int) {}

// Done implements Generator.
func (b *Bernoulli) Done() bool { return false }

// GroupLocal implements GroupLocalGenerator: Next mutates nothing but the
// caller-owned RNG.
func (b *Bernoulli) GroupLocal() {}

// Transient switches patterns (and optionally load) at a given cycle,
// reproducing the §VI-B transient experiments.
type Transient struct {
	before, after Pattern
	switchAt      int64
	prob          float64
}

// NewTransient builds a Bernoulli source whose pattern changes at switchAt.
func NewTransient(before, after Pattern, switchAt int64, load float64, packetSize int) *Transient {
	return &Transient{before: before, after: after, switchAt: switchAt, prob: load / float64(packetSize)}
}

// Name implements Generator.
func (t *Transient) Name() string {
	return fmt.Sprintf("transient(%s->%s@%d)", t.before.Name(), t.after.Name(), t.switchAt)
}

// Next implements Generator.
func (t *Transient) Next(rng *simcore.RNG, node int, now int64) (int, bool) {
	if !rng.Bernoulli(t.prob) {
		return 0, false
	}
	p := t.before
	if now >= t.switchAt {
		p = t.after
	}
	return p.Dest(rng, node), true
}

// Retract implements Generator.
func (t *Transient) Retract(int) {}

// Done implements Generator.
func (t *Transient) Done() bool { return false }

// GroupLocal implements GroupLocalGenerator: Next mutates nothing but the
// caller-owned RNG.
func (t *Transient) GroupLocal() {}

// Burst gives every node a fixed budget of packets injected as fast as the
// network accepts them (§VI-C: synchronized post-barrier communication).
type Burst struct {
	pattern Pattern
	perNode int
	sent    []int
	total   int
	emitted int
}

// NewBurst builds a burst source of perNode packets for each of nodes nodes.
func NewBurst(pattern Pattern, perNode, nodes int) *Burst {
	return &Burst{pattern: pattern, perNode: perNode, sent: make([]int, nodes), total: perNode * nodes}
}

// Name implements Generator.
func (b *Burst) Name() string { return fmt.Sprintf("burst(%s,%d)", b.pattern.Name(), b.perNode) }

// Next implements Generator.
func (b *Burst) Next(rng *simcore.RNG, node int, _ int64) (int, bool) {
	if b.sent[node] >= b.perNode {
		return 0, false
	}
	b.sent[node]++
	b.emitted++
	return b.pattern.Dest(rng, node), true
}

// Retract implements Generator: the budget is restored so the packet is
// regenerated on a later cycle.
func (b *Burst) Retract(node int) {
	b.sent[node]--
	b.emitted--
}

// Done implements Generator.
func (b *Burst) Done() bool { return b.emitted >= b.total }

// Total returns the overall packet budget of the burst.
func (b *Burst) Total() int { return b.total }

// EncodeState implements StatefulGenerator: the per-node sent counters and
// the emitted total are the burst's entire mutable state.
func (b *Burst) EncodeState(e *simcore.Enc) {
	e.Int(b.perNode)
	e.Int(b.emitted)
	e.Int(len(b.sent))
	for _, s := range b.sent {
		e.Int(s)
	}
}

// DecodeState implements StatefulGenerator. The burst geometry (nodes,
// per-node budget) must match the generator being restored into.
func (b *Burst) DecodeState(d *simcore.Dec) error {
	perNode, emitted := d.Int(), d.Int()
	n := d.Len(1 << 26)
	if d.Err() == nil && (perNode != b.perNode || n != len(b.sent)) {
		d.Fail("burst geometry %d×%d, have %d×%d", n, perNode, len(b.sent), b.perNode)
	}
	if d.Err() != nil {
		return d.Err()
	}
	sum := 0
	for i := range b.sent {
		s := d.Int()
		if d.Err() == nil && (s < 0 || s > b.perNode) {
			d.Fail("burst sent[%d]=%d outside [0,%d]", i, s, b.perNode)
		}
		b.sent[i] = s
		sum += s
	}
	if d.Err() == nil && (emitted < 0 || emitted > b.total) {
		d.Fail("burst emitted %d outside [0,%d]", emitted, b.total)
	}
	// The per-node counters and the emitted total are redundant views of the
	// same progress; a snapshot where they disagree is corrupt even when each
	// value is individually in range (Done() would fire early or never).
	if d.Err() == nil && emitted != sum {
		d.Fail("burst emitted %d != sum of per-node sent %d", emitted, sum)
	}
	b.emitted = emitted
	return d.Err()
}

// CloneGenerator implements CloneableGenerator: the clone shares the
// immutable pattern but owns its progress counters.
func (b *Burst) CloneGenerator() Generator {
	c := *b
	c.sent = append([]int(nil), b.sent...)
	return &c
}
