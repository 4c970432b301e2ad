package ofar

import (
	"math"
	"testing"
)

// TestResolve covers the resolver's traffic half and its refusals; the
// CLI/sweepd equivalence table lives with the service
// (TestCLIAndRequestResolveAlike).
func TestResolve(t *testing.T) {
	x, err := Resolve(Experiment{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Config.H != 2 || x.Config.Routing != OFAR || x.Jobs != nil || x.TrafficName() != "UN" {
		t.Errorf("defaults: h=%d routing %s traffic %q", x.Config.H, x.Config.Routing, x.TrafficName())
	}

	x, err = Resolve(Experiment{H: 2, Routing: " ugal-l ", Jobs: "a2a:8@0.5", JobMap: "Random", Background: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if x.Config.Routing != UGAL || x.Config.Ring != RingNone {
		t.Errorf("routing %s ring %v, want UGAL-L without a ring", x.Config.Routing, x.Config.Ring)
	}
	if x.Jobs == nil || !x.Jobs.RandomMap || x.Jobs.Background != 0.1 || x.TrafficName() != x.Jobs.Name() {
		t.Errorf("job set resolved as %+v", x.Jobs)
	}

	workers := -1
	for name, e := range map[string]Experiment{
		"invalid config":   {H: 2, Workers: &workers},
		"unknown routing":  {H: 2, Routing: "WAT"},
		"bad pattern":      {H: 2, Pattern: "NOPE"},
		"pattern and jobs": {H: 2, Pattern: "UN", Jobs: "a2a:8@0.5"},
		"bad jobs":         {H: 2, Jobs: "a2a:8@NaN"},
		"bad job map":      {H: 2, Jobs: "a2a:8@0.5", JobMap: "spiral"},
		"NaN background":   {H: 2, Jobs: "a2a:8@0.5", Background: math.NaN()},
		"inf background":   {H: 2, Jobs: "a2a:8@0.5", Background: math.Inf(1)},
		"neg background":   {H: 2, Jobs: "a2a:8@0.5", Background: -0.1},
	} {
		if _, err := Resolve(e); err == nil {
			t.Errorf("%s: resolved, want an error", name)
		}
	}
}
