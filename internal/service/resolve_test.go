package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ofar"
	"ofar/internal/cli"
)

// resolveCase is one experiment stated two ways: as a sweepd request and as
// the shared CLI flags (plus, for explicit-config cases, the -config file's
// contents as base).
type resolveCase struct {
	name string
	req  Request
	args []string
	base *ofar.Config
}

const (
	caseLoad    = 0.25
	caseWarmup  = 300
	caseMeasure = 600
)

// explicitBase is the configuration the explicit-config cases start from: a
// valid OFAR file whose seed, buffer and escape timeout differ from
// DefaultConfig(2), so an override that did not happen would show.
func explicitBase() *ofar.Config {
	c := ofar.DefaultConfig(2)
	c.Seed = 42
	c.LocalBuf = 48
	c.OFAR.EscapeTimeout = 64
	return &c
}

// resolveCases is every routing × {pattern, job set with a random map and
// background} × {default h, explicit config}, each with an explicit seed,
// plus the two cases where nothing overrides the base.
func resolveCases() []resolveCase {
	var cs []resolveCase
	window := []string{"-warmup", fmt.Sprint(caseWarmup), "-measure", fmt.Sprint(caseMeasure)}
	for _, rt := range []string{"MIN", "VAL", "PB", "UGAL-L", "PAR", "OFAR", "OFAR-L"} {
		for _, jobs := range []bool{false, true} {
			for _, explicit := range []bool{false, true} {
				seed := uint64(7)
				c := resolveCase{
					req:  Request{Routing: rt, Seed: &seed, Loads: []float64{caseLoad}, Warmup: caseWarmup, Measure: caseMeasure},
					args: append([]string{"-routing", rt, "-seed", "7"}, window...),
				}
				traffic, base := "pattern", "h"
				if jobs {
					traffic = "jobs"
					c.req.Jobs, c.req.JobMap, c.req.Background = "stencil:2x2x2@0.3,a2a:8@0.4", "random", 0.1
					c.args = append(c.args, "-jobs", c.req.Jobs, "-jobmap", "random", "-bg", "0.1")
				} else {
					c.req.Pattern = "ADV+2"
					c.args = append(c.args, "-pattern", "ADV+2")
				}
				if explicit {
					base = "config"
					c.base = explicitBase()
					c.req.Config = explicitBase()
				} else {
					c.req.H = 2
					c.args = append(c.args, "-h", "2")
				}
				c.name = rt + "/" + traffic + "/" + base
				cs = append(cs, c)
			}
		}
	}
	cs = append(cs,
		resolveCase{
			name: "defaults/h",
			req:  Request{H: 2, Loads: []float64{caseLoad}, Warmup: caseWarmup, Measure: caseMeasure},
			args: append([]string{"-h", "2"}, window...),
		},
		resolveCase{
			name: "defaults/config",
			req:  Request{Config: explicitBase(), Loads: []float64{caseLoad}, Warmup: caseWarmup, Measure: caseMeasure},
			args: window,
			base: explicitBase(),
		})
	return cs
}

// TestCLIAndRequestResolveAlike: the shared command flags and the equivalent
// sweepd request resolve to byte-identical canonical configs and the same
// point key — the bytes and keys recorded in testdata/resolve_golden.json,
// which sweepd's request resolution produced before the commands shared it.
// Explicit-config cases load the base the way ofarsim -config does.
func TestCLIAndRequestResolveAlike(t *testing.T) {
	raw, err := os.ReadFile("testdata/resolve_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct{ Canon, Key string }
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	cases := resolveCases()
	if len(golden) != len(cases) {
		t.Fatalf("golden file has %d cases, the table %d", len(golden), len(cases))
	}
	digest := ofar.EngineDigest()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := golden[c.name]
			if !ok {
				t.Fatal("no golden entry")
			}
			r, err := resolveRequest(c.req, 64)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			reqKey := fmt.Sprintf("%016x", pointKey(r.canon, r.TrafficName(), caseLoad, r.warmup, r.measure, digest))

			fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
			f := cli.Register(fs, true)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			base := c.base
			if base != nil {
				path := filepath.Join(t.TempDir(), "config.json")
				if err := ofar.SaveConfig(*base, path); err != nil {
					t.Fatal(err)
				}
				loaded, err := ofar.LoadConfig(path)
				if err != nil {
					t.Fatal(err)
				}
				base = &loaded
			}
			x, err := f.Resolve(base)
			if err != nil {
				t.Fatalf("flags: %v", err)
			}
			canon, err := ofar.CanonicalConfigJSON(x.Config)
			if err != nil {
				t.Fatal(err)
			}
			cliKey := fmt.Sprintf("%016x", pointKey(canon, x.TrafficName(), caseLoad, f.Warmup, f.Measure, digest))

			if string(r.canon) != want.Canon {
				t.Errorf("request config:\n got %s\nwant %s", r.canon, want.Canon)
			}
			if string(canon) != want.Canon {
				t.Errorf("flags config:\n got %s\nwant %s", canon, want.Canon)
			}
			if reqKey != want.Key || cliKey != want.Key {
				t.Errorf("point keys: request %s, flags %s, want %s", reqKey, cliKey, want.Key)
			}
		})
	}
}

// FuzzResolveRequest decodes arbitrary bytes as a sweep request, as the
// /sweep handler does, and resolves it. Resolution must never panic, and an
// accepted request must carry a valid configuration and finite loads —
// offered loads, job loads and background alike.
func FuzzResolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"h":2,"jobs":"a2a:16@NaN,ring:8@Inf","loads":[0.5]}`,
		`{"h":2,"jobs":"stencil:2x2x2@0.3,a2a:8@0.4","job_map":"random","background":0.1,"loads":[0.5,1]}`,
		`{"h":2,"routing":"par","pattern":"ADV+1","seed":3,"loads":[0.1,0.2],"warmup":100,"measure":200}`,
		`{"config":{"P":2,"A":4,"H":2,"PacketSize":8,"LocalLatency":10,"GlobalLatency":100,"LocalBuf":32,"GlobalBuf":256,"InjBuf":32,"LocalVCs":3,"GlobalVCs":2,"InjVCs":3,"Ring":1,"NumRings":1,"RingVCs":3,"RingBuf":32,"AllocIters":3,"PendingCap":16,"Routing":"OFAR"},"routing":"MIN","loads":[0.3]}`,
		`{"h":9,"loads":[0.1]}`,
		`{"h":2,"pattern":"UN","jobs":"a2a:8@0.5","loads":[0.5]}`,
	} {
		f.Add([]byte(seed))
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		r, err := resolveRequest(req, 64)
		if err != nil {
			return
		}
		if err := r.Config.Validate(); err != nil {
			t.Fatalf("accepted a request whose config fails Validate: %v", err)
		}
		for _, l := range r.loads {
			if !finite(l) {
				t.Fatalf("accepted load %v", l)
			}
		}
		if r.Jobs != nil {
			if !finite(r.Jobs.Background) {
				t.Fatalf("accepted background %v", r.Jobs.Background)
			}
			for _, j := range r.Jobs.Jobs {
				if !finite(j.Load) {
					t.Fatalf("accepted job load %v", j.Load)
				}
			}
		}
	})
}
