package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// The host reference is a fixed workload that does not depend on the code
// under test. One goroutine per CPU of the run walks a random cycle through
// a table, mixing every value it reads: first through a 32 MiB table with
// heavy mixing (cache latency and arithmetic), then through a 128 MiB table
// with light mixing (memory latency). On a guest whose CPUs, caches and
// memory bandwidth are shared with other guests, the speed at which the host
// runs it changes within seconds, and from one quarter hour to the next by a
// fifth, and the simulator's speed changes with it. An untraced run pauses
// its work at fixed points to time one burst of the reference, and its
// simulation rate and set-up time are expressed at the reference's nominal
// speed (result.normalize), so that a host slowed by its neighbours is not
// read as a slower program.
//
// The reference runs in a child process, so that its tables count neither
// in the run's peak resident set nor in its CPU time. Each burst evicts part
// of the run's working set from the caches, at the same points of every run.
const (
	refSteps = 1 << 17 // steps per goroutine per walk of a burst
	// refNominalNs is about the reference's CPU time per step on a quiet
	// 2-vCPU KVM guest (Xeon, 105 MiB L3; 180-225 ns measured). Normalized
	// rates read as if the run had been made at that speed.
	refNominalNs = 210.0
	// refSamples is the number of bursts an untraced run times, spread
	// evenly over its measurement.
	refSamples = 10
)

// refWalks are the two walks of a burst: table entries (uint32) and mixing
// rounds per step.
var refWalks = []struct{ entries, mix int }{{8 << 20, 24}, {32 << 20, 2}}

// hostRefMain is the child process. It builds its tables and prints
// "ready", then for every line it reads runs one burst and prints the
// burst's CPU time per step in ns. It exits at the end of its input.
func hostRefMain() int {
	threads := runtime.GOMAXPROCS(0)
	rng := uint64(0x9e3779b97f4a7c15)
	tables := make([][][]uint32, len(refWalks))
	for w, walk := range refWalks {
		for i := 0; i < threads; i++ {
			t := make([]uint32, walk.entries)
			for j := range t {
				t[j] = uint32(j)
			}
			// Sattolo's algorithm: a single cycle through every entry.
			for j := len(t) - 1; j > 0; j-- {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int((rng >> 32) * uint64(j) >> 32)
				t[j], t[k] = t[k], t[j]
			}
			tables[w] = append(tables[w], t)
		}
	}
	fmt.Println("ready")
	sums := make([]uint64, threads)
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		c := cpuTime()
		for w, walk := range refWalks {
			var wg sync.WaitGroup
			for i, t := range tables[w] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x, acc := uint32(i), sums[i]
					for s := 0; s < refSteps; s++ {
						x = t[x]
						v := uint64(x)
						for m := 0; m < walk.mix; m++ {
							v = v*0x9e3779b97f4a7c15 + acc
							v ^= v >> 29
						}
						acc += v
					}
					sums[i] = acc
				}()
			}
			wg.Wait()
		}
		fmt.Println(float64((cpuTime() - c).Nanoseconds()) / float64(refSteps*threads*len(refWalks)))
	}
	return 0
}

// hostRef is an untraced run's handle on the reference process. A nil
// *hostRef (traced runs and the tests) does nothing.
type hostRef struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []float64
	err     error
}

func startHostRef() (*hostRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "hostref")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hostRef{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	// Wait until the tables are built, so that building them overlaps no
	// measurement.
	if !h.out.Scan() || h.out.Text() != "ready" {
		h.close()
		return nil, fmt.Errorf("the host reference did not start: %v", h.out.Err())
	}
	return h, nil
}

// sample runs one burst of the reference while the caller waits.
func (h *hostRef) sample() {
	if h == nil || h.err != nil {
		return
	}
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		h.err = err
		return
	}
	if !h.out.Scan() {
		h.err = fmt.Errorf("host reference ended: %v", h.out.Err())
		return
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(h.out.Text()), 64)
	if err != nil {
		h.err = err
		return
	}
	h.samples = append(h.samples, v)
}

// close ends the reference process and waits for it.
func (h *hostRef) close() error {
	h.in.Close()
	err := h.cmd.Wait()
	if h.err != nil {
		return h.err
	}
	if err == nil && len(h.samples) == 0 {
		err = fmt.Errorf("host reference: no sample was taken")
	}
	return err
}
