package network

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"ofar/internal/router"
)

// stepPool is the persistent worker pool behind a pooled Step phase. Its
// unit of work is one dragonfly group.
//
// Lifecycle: Network.New starts Workers−1 goroutines parked on the dispatch
// barrier; the caller of Step acts as the pool's remaining worker, so the
// pool always has exactly Config.PoolWidth() participants and the caller
// never idles while work remains. Network.Close retires the goroutines; an
// un-Closed pooled Network pins them (parked, but alive) for the life of
// the process.
//
// One epoch:
//
//  1. dispatch — the caller publishes the phase and the cycle, resets the
//     work-stealing cursor and the pending count, bumps the epoch under the
//     dispatch mutex and broadcasts. Everything is reused: steady-state
//     dispatch performs zero allocations.
//  2. steal    — every participant (parked workers and the caller alike)
//     claims whole groups via an atomic cursor and runs the phase's
//     per-group function with its own engine. Which worker runs which group
//     is unobservable: routing state lives in the router (buffers, arbiters,
//     private RNG stream), engine clones are behaviorally identical
//     (router.ConcurrentCloner), and every cross-group effect is buffered in
//     the group's scratch.
//  3. join     — each parked worker decrements pending when the cursor runs
//     dry; the last one records the epoch in doneEpoch and signals. The
//     caller spins briefly (a phase is short), yields, then parks on the
//     completion cond. The caller then merges the buffered effects in the
//     inline order, so runs stay bit-identical for any worker count.
type stepPool struct {
	// Hot shared state, reset at each dispatch.
	cursor  atomic.Int64 // next unclaimed group
	pending atomic.Int32 // parked workers still working this epoch

	// Dispatch barrier: workers park on cond until epoch advances.
	// now/phase/cursor/pending are written by the caller before the epoch
	// bump, so the mutex hand-off publishes them to the workers.
	mu     sync.Mutex
	cond   sync.Cond
	epoch  uint64 // guarded by mu
	closed bool   // guarded by mu

	now   int64
	phase int // phaseHandle / phaseCycle / phaseGenerate / phasePB

	// Completion barrier: the last finisher of an epoch publishes it here.
	// Epoch-tagged (not a boolean) so a straggler signalling an old epoch
	// late can never satisfy a newer wait.
	doneMu    sync.Mutex
	doneCond  sync.Cond
	doneEpoch uint64 // guarded by doneMu

	workers sync.WaitGroup // worker goroutine lifetimes, for Close
}

// startPool creates the pool and parks workers−1 goroutines on it. Worker 0
// is the Step caller (it uses the primary engine, n.Engine == workerEng[0]);
// goroutines w = 1..workers−1 use their per-worker engine clones.
func (n *Network) startPool(workers int) {
	p := &stepPool{}
	p.cond.L = &p.mu
	p.doneCond.L = &p.doneMu
	n.workerPool = p
	for w := 1; w < workers; w++ {
		p.workers.Add(1)
		go n.poolWorker(w)
	}
}

// poolWorker is one parked pool goroutine: wait for a new epoch, steal
// groups until the cursor runs dry, then report in.
func (n *Network) poolWorker(w int) {
	p := n.workerPool
	defer p.workers.Done()
	// Label the goroutine once at birth (the labels stick for its lifetime):
	// profile samples of pool workers show up under pool_worker=<w>.
	pprof.Do(context.Background(), pprof.Labels("pool_worker", strconv.Itoa(w)), func(context.Context) {
		eng := n.workerEng[w]
		var seen uint64
		for {
			p.mu.Lock()
			for p.epoch == seen && !p.closed {
				p.cond.Wait()
			}
			if p.closed {
				p.mu.Unlock()
				return
			}
			seen = p.epoch
			now, phase := p.now, p.phase
			p.mu.Unlock()

			n.groupShare(eng, phase, now)

			if p.pending.Add(-1) == 0 {
				p.doneMu.Lock()
				p.doneEpoch = seen
				p.doneMu.Unlock()
				p.doneCond.Signal()
			}
		}
	})
}

// Pool phases, one per pooled Step phase: phaseHandle runs handle over each
// group's share of the due list, phaseCycle runs cycleGroup (compact +
// compute + commitSched into the group outbox), phaseGenerate runs
// generateGroup (effects buffered as genRec for commitGenerate), and
// phasePB runs publishPBGroup (each group's routers republish their own
// flag board — no cross-group state, no observable effects, so no barrier
// work at all).
const (
	phaseHandle = iota
	phaseCycle
	phaseGenerate
	phasePB
)

// groupShare claims group IDs one at a time until the cursor runs dry and
// runs the current phase on each. Chunk size is fixed at 1: there are only
// G claims per cycle, so cursor contention is negligible, and groups are the
// unit of ownership — nothing finer is safe, nothing coarser balances.
func (n *Network) groupShare(eng router.Engine, phase int, now int64) {
	p := n.workerPool
	for {
		k := p.cursor.Add(1) - 1
		if k >= int64(n.nGroups) {
			return
		}
		g := int(k)
		sh := &n.gs[g]
		switch phase {
		case phaseHandle:
			for _, idx := range n.dueG[g] {
				n.handle(n.curDue[idx], idx, now, sh)
			}
		case phaseCycle:
			n.cycleGroup(g, eng, now, sh)
		case phaseGenerate:
			n.generateGroup(g, eng, now)
		case phasePB:
			n.publishPBGroup(g, now)
		}
	}
}

// runShards dispatches one phase to the pool — every participant, caller
// included, steals whole groups — and joins. The caller resumes only after
// every group's share is done, with all cross-group effects parked in the
// per-group scratch for the barrier to merge.
func (n *Network) runShards(phase int, now int64) {
	p := n.workerPool
	p.now, p.phase = now, phase
	p.cursor.Store(0)
	p.pending.Store(int32(n.workers - 1))
	p.mu.Lock()
	p.epoch++
	epoch := p.epoch
	p.mu.Unlock()
	p.cond.Broadcast()

	n.groupShare(n.Engine, phase, now)
	p.join(epoch)
}

// join waits for the epoch's parked workers to report in: spin first (a
// phase is tens of microseconds), then yield the P so parked-but-runnable
// workers get it (this is what keeps GOMAXPROCS=1 runs — e.g. under
// testing.AllocsPerRun — live), and only then park on the completion cond.
func (p *stepPool) join(epoch uint64) {
	for spin := 0; p.pending.Load() != 0; spin++ {
		if spin < 64 {
			continue
		}
		if spin < 256 {
			runtime.Gosched()
			continue
		}
		p.doneMu.Lock()
		for p.doneEpoch != epoch {
			p.doneCond.Wait()
		}
		p.doneMu.Unlock()
		break
	}
}

// Close retires the worker pool's goroutines and waits for them to exit.
// Idempotent and safe on networks without a pool (no-op). Must not be
// called concurrently with Step, and a closed pooled network must not be
// stepped again (there is no one left to answer a dispatch).
func (n *Network) Close() {
	p := n.workerPool
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.workers.Wait()
}
