package main

import (
	"flag"
	"path/filepath"
	"testing"

	"ofar"
)

// resolveArgs parses ofarsim's flags from args and resolves them.
func resolveArgs(t *testing.T, args ...string) ofar.Resolved {
	t.Helper()
	fs := flag.NewFlagSet("ofarsim", flag.ContinueOnError)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	x, err := o.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// writeConfig saves cfg as a -config file and returns its path.
func writeConfig(t *testing.T, cfg ofar.Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := ofar.SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNetworkLineReportsEffectiveConfig: the report header describes the
// configuration the run used, not the flag values — a baseline drops the
// escape ring, and a -config file sets h.
func TestNetworkLineReportsEffectiveConfig(t *testing.T) {
	h3 := writeConfig(t, ofar.DefaultConfig(3))
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-h", "2", "-routing", "MIN"},
			"network       : h=2 (p=2 a=4 groups=9, 72 nodes), none escape ring x1"},
		{[]string{"-h", "2", "-config", h3},
			"network       : h=3 (p=3 a=6 groups=19, 342 nodes), physical escape ring x1"},
		{[]string{"-h", "2", "-ring", "embedded", "-rings", "2"},
			"network       : h=2 (p=2 a=4 groups=9, 72 nodes), embedded escape ring x2"},
	} {
		if got := networkLine(resolveArgs(t, tc.args...).Config); got != tc.want {
			t.Errorf("%v:\n got %q\nwant %q", tc.args, got, tc.want)
		}
	}
}

// TestConfigFileTakesExplicitOverrides: under -config, an explicitly given
// -routing or -seed overrides the file, and an absent one keeps it.
func TestConfigFileTakesExplicitOverrides(t *testing.T) {
	file := ofar.DefaultConfig(2)
	file.Seed = 42
	path := writeConfig(t, file)

	kept := resolveArgs(t, "-config", path).Config
	if kept.Routing != ofar.OFAR || kept.Ring != ofar.RingPhysical || kept.Seed != 42 {
		t.Errorf("no overrides: routing %s ring %v seed %d, want the file's OFAR/physical/42", kept.Routing, kept.Ring, kept.Seed)
	}
	over := resolveArgs(t, "-config", path, "-routing", "par", "-seed", "5").Config
	if over.Routing != ofar.PAR || over.Ring != ofar.RingNone || over.LocalVCs != 4 || over.InjVCs != 4 || over.Seed != 5 {
		t.Errorf("-routing par -seed 5: routing %s ring %v VCs %d/%d seed %d, want PAR/none/4/4/5",
			over.Routing, over.Ring, over.LocalVCs, over.InjVCs, over.Seed)
	}
}
