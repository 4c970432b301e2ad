package traffic

import (
	"strings"
	"testing"

	"ofar/internal/packet"
	"ofar/internal/simcore"
	"ofar/internal/topology"
	"ofar/internal/trace"
)

// jobSetConfig is the shared four-kind mix on the 72-node h=2 test topology.
func jobSetConfig() JobSetConfig {
	return JobSetConfig{
		Jobs: []JobSpec{
			{Kind: JobStencil, Nodes: 8, Load: 0.3, Dims: [3]int{2, 2, 2}},
			{Kind: JobAll2All, Nodes: 8, Load: 0.4},
			{Kind: JobRing, Nodes: 8, Load: 0.2},
			{Kind: JobParamServer, Nodes: 6, Load: 0.3},
		},
		Mapping:    MapLinear,
		Background: 0.1,
		Seed:       1,
		PacketSize: 8,
	}
}

func TestJobSetPlacement(t *testing.T) {
	d := topo(t)
	s, err := NewJobSet(d, jobSetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumJobs() != 5 { // 4 jobs + background
		t.Fatalf("got %d slots, want 5", s.NumJobs())
	}
	// Linear mapping packs jobs onto consecutive nodes in order.
	next := 0
	for j, spec := range jobSetConfig().Jobs {
		for r := 0; r < spec.Nodes; r++ {
			if got := s.JobOf(next); got != j {
				t.Fatalf("node %d in slot %d, want job %d", next, got, j)
			}
			next++
		}
	}
	// The rest is the background slot, and the slot sizes partition the nodes.
	for n := next; n < d.Nodes; n++ {
		if got := s.JobOf(n); got != 4 {
			t.Fatalf("unplaced node %d in slot %d, want background slot 4", n, got)
		}
	}
	total := 0
	for j := 0; j < s.NumJobs(); j++ {
		total += s.JobNodes(j)
	}
	if total != d.Nodes {
		t.Errorf("slot sizes sum to %d, want %d nodes", total, d.Nodes)
	}
	if s.JobName(0) != "stencil0" || s.JobName(4) != "bg" {
		t.Errorf("slot names %q/%q, want stencil0/bg", s.JobName(0), s.JobName(4))
	}
}

func TestJobSetRandomMappingIsSeededPermutation(t *testing.T) {
	d := topo(t)
	cfg := jobSetConfig()
	cfg.Mapping = MapRandom
	a, err := NewJobSet(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJobSet(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	c, err := NewJobSet(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameAsA, sameAsC := true, true
	for n := 0; n < d.Nodes; n++ {
		if a.JobOf(n) != b.JobOf(n) {
			t.Fatalf("same seed placed node %d differently", n)
		}
		if a.JobOf(n) != c.JobOf(n) {
			sameAsC = false
		}
		lin := -1
		if s, err := NewJobSet(d, jobSetConfig()); err == nil {
			lin = s.JobOf(n)
		}
		if a.JobOf(n) != lin {
			sameAsA = false
		}
	}
	if sameAsC {
		t.Error("different seeds produced identical placements")
	}
	if sameAsA {
		t.Error("random mapping equals linear mapping")
	}
}

// TestJobSetDestinations: each kind's packets go where its communication
// structure says — face neighbors, ring successors, the parameter server, or
// another member — and never to the source itself or outside the job.
func TestJobSetDestinations(t *testing.T) {
	d := topo(t)
	s, err := NewJobSet(d, jobSetConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewRNG(7)
	memberSet := make([]map[int]bool, 4)
	base := 0
	sizes := []int{8, 8, 8, 6}
	for j := range memberSet {
		memberSet[j] = map[int]bool{}
		for r := 0; r < sizes[j]; r++ {
			memberSet[j][base+r] = true
		}
		base += sizes[j]
	}
	for trial := 0; trial < 4000; trial++ {
		for node := 0; node < 30; node++ {
			j := s.JobOf(node)
			dst, ok := s.Next(rng, node, 1000)
			if !ok {
				continue
			}
			s.Retract(node) // keep emitted balanced for the check below
			if dst == node {
				t.Fatalf("job %d node %d sent to itself", j, node)
			}
			if !memberSet[j][dst] {
				t.Fatalf("job %d node %d sent to %d outside the job", j, node, dst)
			}
			switch j {
			case 2: // ring: always the successor
				rank := node - 16
				want := 16 + (rank+1)%8
				if dst != want {
					t.Fatalf("ring rank %d sent to %d, want %d", rank, dst, want)
				}
			case 3: // ps: workers send to rank 0, the server to a worker
				if node != 24 && dst != 24 {
					t.Fatalf("ps worker %d sent to %d, want the server 24", node, dst)
				}
				if node == 24 && dst == 24 {
					t.Fatal("ps server sent to itself")
				}
			}
		}
	}
	for j := 0; j < s.NumJobs(); j++ {
		if s.Emitted(j) != 0 {
			t.Errorf("slot %d emitted %d after balanced retracts, want 0", j, s.Emitted(j))
		}
	}
}

// TestJobSetLifetimeGating: a windowed job generates only inside
// [Start, End), and the background slot runs forever.
func TestJobSetLifetimeGating(t *testing.T) {
	d := topo(t)
	cfg := jobSetConfig()
	cfg.Jobs[1].Start, cfg.Jobs[1].End = 100, 200
	s, err := NewJobSet(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewRNG(3)
	node := 8 // a2a job, ranks 8..15
	for _, tc := range []struct {
		now  int64
		want bool
	}{{0, false}, {99, false}, {100, true}, {199, true}, {200, false}, {5000, false}} {
		generated := false
		for i := 0; i < 2000 && !generated; i++ {
			_, generated = s.Next(rng, node, tc.now)
		}
		if generated != tc.want {
			t.Errorf("a2a at cycle %d: generated=%v, want %v", tc.now, generated, tc.want)
		}
	}
	// Background keeps going regardless.
	generated := false
	for i := 0; i < 2000 && !generated; i++ {
		_, generated = s.Next(rng, d.Nodes-1, 1_000_000)
	}
	if !generated {
		t.Error("background slot idle at cycle 1e6")
	}
}

func TestJobSetValidation(t *testing.T) {
	d := topo(t)
	for name, cfg := range map[string]JobSetConfig{
		"no jobs":      {PacketSize: 8},
		"zero nodes":   {Jobs: []JobSpec{{Kind: JobAll2All, Nodes: 0, Load: 0.1}}, PacketSize: 8},
		"neg load":     {Jobs: []JobSpec{{Kind: JobAll2All, Nodes: 4, Load: -0.1}}, PacketSize: 8},
		"bad grid":     {Jobs: []JobSpec{{Kind: JobStencil, Nodes: 8, Load: 0.1, Dims: [3]int{2, 2, 3}}}, PacketSize: 8},
		"overflow":     {Jobs: []JobSpec{{Kind: JobAll2All, Nodes: d.Nodes + 1, Load: 0.1}}, PacketSize: 8},
		"bad psize":    {Jobs: []JobSpec{{Kind: JobAll2All, Nodes: 4, Load: 0.1}}},
		"neg backgrnd": {Jobs: []JobSpec{{Kind: JobAll2All, Nodes: 4, Load: 0.1}}, Background: -1, PacketSize: 8},
	} {
		if _, err := NewJobSet(d, cfg); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func TestJobSetCloneIndependence(t *testing.T) {
	d := topo(t)
	s, err := NewJobSet(d, jobSetConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewRNG(5)
	for i := 0; i < 500; i++ {
		s.Next(rng, i%30, 10)
	}
	clone := s.CloneGenerator().(*JobSet)
	for i := 0; i < 500; i++ {
		clone.Next(rng, i%30, 20)
	}
	for j := 0; j < s.NumJobs(); j++ {
		if clone.Emitted(j) < s.Emitted(j) {
			t.Errorf("slot %d: clone emitted %d < original %d", j, clone.Emitted(j), s.Emitted(j))
		}
	}
	// The original must not have moved while the clone generated.
	var before [5]int64
	for j := range before {
		before[j] = s.Emitted(j)
	}
	for i := 0; i < 500; i++ {
		clone.Next(rng, i%30, 30)
	}
	for j := range before {
		if s.Emitted(j) != before[j] {
			t.Errorf("slot %d: original emitted moved %d -> %d while clone ran", j, before[j], s.Emitted(j))
		}
	}
}

func TestJobSetStateRoundTripAndFailures(t *testing.T) {
	d := topo(t)
	s, err := NewJobSet(d, jobSetConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewRNG(11)
	for i := 0; i < 2000; i++ {
		s.Next(rng, i%d.Nodes, 50)
	}
	var e simcore.Enc
	s.EncodeState(&e)
	fresh, err := NewJobSet(d, jobSetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.DecodeState(simcore.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.NumJobs(); j++ {
		if fresh.Emitted(j) != s.Emitted(j) {
			t.Errorf("slot %d: decoded emitted %d, want %d", j, fresh.Emitted(j), s.Emitted(j))
		}
	}

	corrupt := func(name string, enc func(*simcore.Enc)) {
		var e simcore.Enc
		enc(&e)
		target, err := NewJobSet(d, jobSetConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := target.DecodeState(simcore.NewDec(e.Data())); err == nil {
			t.Errorf("%s: decoded cleanly, want error", name)
		}
	}
	corrupt("slot count mismatch", func(e *simcore.Enc) {
		e.Int(3)
		for i := 0; i < 3; i++ {
			e.I64(1)
		}
		e.I64(3)
	})
	corrupt("negative counter", func(e *simcore.Enc) {
		e.Int(5)
		e.I64(-1)
		for i := 0; i < 4; i++ {
			e.I64(0)
		}
		e.I64(-1)
	})
	corrupt("total mismatch", func(e *simcore.Enc) {
		e.Int(5)
		for i := 0; i < 5; i++ {
			e.I64(2)
		}
		e.I64(99) // sum is 10
	})
	corrupt("truncated", func(e *simcore.Enc) {
		e.Int(5)
		e.I64(1)
	})
}

// TestBurstDecodeRejectsInconsistentTotal: the redundant emitted total must
// equal the sum of the per-node counters, even when every individual value is
// in range.
func TestBurstDecodeRejectsInconsistentTotal(t *testing.T) {
	d := topo(t)
	b := NewBurst(NewUniform(d), 4, d.Nodes)
	var e simcore.Enc
	e.Int(4)       // perNode matches
	e.Int(8)       // emitted: in [0, total] but != sum(sent) below
	e.Int(d.Nodes) // node count matches
	for i := 0; i < d.Nodes; i++ {
		e.Int(0) // all counters zero — sum is 0, not 8
	}
	if err := b.DecodeState(simcore.NewDec(e.Data())); err == nil {
		t.Fatal("inconsistent burst state decoded cleanly, want error")
	}
}

func TestTraceReplayReinjectsExactly(t *testing.T) {
	d := topo(t)
	recs := []trace.Record{
		{Cycle: 5, Src: 0, Dst: 9, Size: 8},
		{Cycle: 5, Src: 3, Dst: 1, Size: 8},
		{Cycle: 7, Src: 0, Dst: 2, Size: 8},
		{Cycle: 12, Src: 3, Dst: 0, Size: 8},
	}
	r, err := NewTraceReplay(recs, d.Nodes, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := simcore.NewRNG(1)
	// Nothing before the recorded cycles.
	if _, ok := r.Next(rng, 0, 4); ok {
		t.Fatal("replayed a record before its cycle")
	}
	if dst, ok := r.Next(rng, 0, 5); !ok || dst != 9 {
		t.Fatalf("node 0 cycle 5: got (%d,%v), want (9,true)", dst, ok)
	}
	if _, ok := r.Next(rng, 0, 5); ok {
		t.Fatal("node 0 emitted twice at cycle 5")
	}
	if dst, ok := r.Next(rng, 3, 5); !ok || dst != 1 {
		t.Fatalf("node 3 cycle 5: got (%d,%v), want (1,true)", dst, ok)
	}
	// A missed cycle is caught up on the next call (late-record semantics).
	if dst, ok := r.Next(rng, 0, 9); !ok || dst != 2 {
		t.Fatalf("node 0 cycle 9 catch-up: got (%d,%v), want (2,true)", dst, ok)
	}
	if r.Done() {
		t.Fatal("done with one record outstanding")
	}
	// Retract rewinds: the record is offered again.
	if dst, ok := r.Next(rng, 3, 12); !ok || dst != 0 {
		t.Fatalf("node 3 cycle 12: got (%d,%v), want (0,true)", dst, ok)
	}
	r.Retract(3)
	if r.Done() {
		t.Fatal("done right after a retract")
	}
	if dst, ok := r.Next(rng, 3, 13); !ok || dst != 0 {
		t.Fatalf("node 3 retry: got (%d,%v), want (0,true)", dst, ok)
	}
	if !r.Done() {
		t.Fatal("not done after every record replayed")
	}
}

func TestTraceReplayValidation(t *testing.T) {
	for name, recs := range map[string][]trace.Record{
		"src out of range": {{Cycle: 1, Src: 99, Dst: 0, Size: 8}},
		"dst out of range": {{Cycle: 1, Src: 0, Dst: 99, Size: 8}},
		"self-addressed":   {{Cycle: 1, Src: 2, Dst: 2, Size: 8}},
		"cycle regression": {{Cycle: 9, Src: 0, Dst: 1, Size: 8}, {Cycle: 3, Src: 1, Dst: 0, Size: 8}},
		"size mismatch":    {{Cycle: 1, Src: 0, Dst: 1, Size: 8}, {Cycle: 2, Src: 1, Dst: 0, Size: 16}},
	} {
		if _, err := NewTraceReplay(recs, 72, 8); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestJobSetSlotLimit: the network tags every packet with its job slot in
// an int16 header field, so a job set with more slots than that holds —
// jobs plus the background slot — is refused at construction.
func TestJobSetSlotLimit(t *testing.T) {
	d, err := topology.New(40, 20, 2, 41) // 32,800 nodes
	if err != nil {
		t.Fatal(err)
	}
	mk := func(jobs int, bg float64) error {
		specs := make([]JobSpec, jobs)
		for i := range specs {
			specs[i] = JobSpec{Kind: JobAll2All, Nodes: 1, Load: 0.1}
		}
		_, err := NewJobSet(d, JobSetConfig{Jobs: specs, Background: bg, PacketSize: 8})
		return err
	}
	for _, tc := range []struct {
		name string
		jobs int
		bg   float64
		ok   bool
	}{
		{"32767-jobs", packet.MaxJobSlots, 0, true},
		{"32766-jobs+bg", packet.MaxJobSlots - 1, 0.1, true},
		{"32767-jobs+bg", packet.MaxJobSlots, 0.1, false},
		{"32768-jobs", packet.MaxJobSlots + 1, 0, false},
	} {
		err := mk(tc.jobs, tc.bg)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "job slots")):
			t.Errorf("%s: err = %v, want a job-slot limit error", tc.name, err)
		}
	}
}
