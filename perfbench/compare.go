package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// run is one benchmark output: its provenance line and its result line.
type run struct {
	prov provenance
	sum  summary
}

// readRuns reads every run from a file of concatenated benchmark outputs.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	var prov *provenance
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		var p provenance
		if json.Unmarshal(line, &p) == nil && p.Workload != "" {
			prov = &p
			continue
		}
		var s summary
		if prov != nil && json.Unmarshal(line, &s) == nil && s.Metrics != nil {
			out = append(out, run{*prov, s})
			prov = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark result", path)
	}
	return out, nil
}

// compareMain compares two files of benchmark outputs, base and head,
// metric by metric and workload by workload: median, quartile spread and the
// change against each end-to-end metric's bound. It refuses results taken on
// different host shapes, and exits 1 when a metric regressed past its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE HEAD (files of concatenated benchmark outputs)")
		return 2
	}
	base, err := readRuns(args[0])
	if err == nil {
		var head []run
		if head, err = readRuns(args[1]); err == nil {
			return compareRuns(base, head)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

func compareRuns(base, head []run) int {
	shape := base[0].prov.Host
	for _, r := range append(append([]run(nil), base...), head...) {
		if r.prov.Host != shape {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different host shapes: %+v and %+v\n", shape, r.prov.Host)
			return 2
		}
	}
	bounds := map[string]metric{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		bounds[m.name] = m
	}
	type cell struct{ base, head []float64 }
	cells := map[string]*cell{}
	add := func(rs []run, head bool) {
		for _, r := range rs {
			for name, mv := range r.sum.Metrics {
				k := r.prov.Workload + "\t" + name
				c := cells[k]
				if c == nil {
					c = &cell{}
					cells[k] = c
				}
				if head {
					c.head = append(c.head, mv.Value)
				} else {
					c.base = append(c.base, mv.Value)
				}
			}
		}
	}
	add(base, false)
	add(head, true)
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("host: %+v\n", shape)
	fmt.Println("workload\tmetric\tbase_median\tbase_spread\thead_median\thead_spread\tchange\tverdict")
	regressed := 0
	for _, k := range keys {
		c := cells[k]
		workload, name, _ := strings.Cut(k, "\t")
		bm, bs := medianSpread(c.base)
		hm, hs := medianSpread(c.head)
		change := (hm - bm) / math.Abs(bm)
		verdict := ""
		if m := bounds[name]; m.bound > 0 && len(c.base) > 0 && len(c.head) > 0 {
			worse := change
			if m.better == "higher" {
				worse = -change
			}
			switch {
			case bs > m.bound || hs > m.bound:
				verdict = "unresolved (spread above bound)"
			case worse > m.bound:
				verdict = fmt.Sprintf("REGRESSED (bound %.0f%%)", 100*m.bound)
				regressed++
			default:
				verdict = "within bound"
			}
		}
		fmt.Printf("%s\t%s\t%.6g\t%.3f\t%.6g\t%.3f\t%+.1f%%\t%s\n", workload, name, bm, bs, hm, hs, 100*change, verdict)
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// medianSpread is the median of xs and the distance between its first and
// third quartiles as a share of the median (Python's statistics.quantiles,
// n=4).
func medianSpread(xs []float64) (float64, float64) {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return m, 0
	}
	return m, (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}
