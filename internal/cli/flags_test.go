package cli

import (
	"flag"
	"testing"

	"ofar"
)

func parse(t *testing.T, traffic bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, traffic)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestResolveAppliesOnlyGivenFlags: on an explicit base, flags given on the
// command line override it and absent ones keep it, whatever their defaults.
func TestResolveAppliesOnlyGivenFlags(t *testing.T) {
	base := ofar.DefaultConfig(2)
	base.Seed = 42
	base.SetRouting(ofar.MIN)
	base.Workers = 3

	x, err := parse(t, true, "-cutover", "5", "-faults", "link@10:0:3").Resolve(&base)
	if err != nil {
		t.Fatal(err)
	}
	c := x.Config
	if c.Seed != 42 || c.Routing != ofar.MIN || c.Workers != 3 || c.ParallelCutover != 5 || len(c.Faults) != 1 {
		t.Errorf("seed %d routing %s workers %d cutover %d faults %v: want 42/MIN/3/5 and one fault",
			c.Seed, c.Routing, c.Workers, c.ParallelCutover, c.Faults)
	}

	other := ofar.DefaultConfig(2)
	x, err = parse(t, true, "-h", "3", "-seed", "9", "-routing", "pb").Resolve(&other)
	if err != nil {
		t.Fatal(err)
	}
	if c := x.Config; c.H != 2 || c.Seed != 9 || c.Routing != ofar.PB || c.Ring != ofar.RingNone {
		t.Errorf("h %d seed %d routing %s ring %v: want the base's h=2 with seed 9, PB, no ring", c.H, c.Seed, c.Routing, c.Ring)
	}
}

func TestResolveDefaultsAndErrors(t *testing.T) {
	x, err := parse(t, true, "-h", "2").Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ofar.DefaultConfig(2)
	if c := x.Config; c.H != 2 || c.Routing != want.Routing || c.Ring != want.Ring || c.Seed != want.Seed || x.TrafficName() != "UN" {
		t.Errorf("defaults resolved to h=%d %s ring %v seed %d traffic %q", c.H, c.Routing, c.Ring, c.Seed, x.TrafficName())
	}
	if f := parse(t, false); f.fs.Lookup("routing") != nil || f.fs.Lookup("jobs") != nil {
		t.Error("Register without traffic defined the routing/traffic flags")
	}
	for _, args := range [][]string{
		{"-faults", "link@10"},
		{"-workers", "-1"},
		{"-pattern", "UN", "-jobs", "a2a:8@0.5"},
	} {
		if _, err := parse(t, true, args...).Resolve(nil); err == nil {
			t.Errorf("%v resolved, want an error", args)
		}
	}
}
