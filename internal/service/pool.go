package service

import (
	"runtime"
	"sync"
	"time"
)

// simPool runs point simulations on a bounded set of workers behind an
// admission gate. Two resources are managed:
//
//   - Worker slots (sims): at most this many simulations execute at once.
//   - CPU tokens (capacity = GOMAXPROCS): each running simulation holds as
//     many tokens as its network's pool can actually engage —
//     Config.PoolWidth, the same budget RunLoadSweepOpt uses — so the
//     service never oversubscribes the machine beyond what Workers already
//     claims. Inline (Workers ≤ 1) points hold one token each; a width-4
//     pooled point holds four.
//
// Admission is reservation-based: a request reserves one slot per genuinely
// new point (cache miss, no open flight) before anything is enqueued, and the
// reservation is either consumed by the singleflight leader's Submit or
// released when the request finishes. Once reserved + queued would exceed
// MaxQueue — or the projected wait would blow the configured latency bound —
// Admit refuses and the request is shed with 429 + Retry-After instead of
// queueing without bound.
type simPool struct {
	jobs chan func()
	wg   sync.WaitGroup

	sims     int
	maxQueue int

	mu       sync.Mutex
	cond     *sync.Cond
	tokens   int // available CPU tokens
	capacity int
	reserved int // admitted, not yet submitted
	queued   int // submitted, not yet running
	inflight int // simulating right now
}

func newSimPool(sims, maxQueue int) *simPool {
	if sims < 1 {
		sims = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	capacity := runtime.GOMAXPROCS(0)
	if capacity < 1 {
		capacity = 1
	}
	p := &simPool{
		// Capacity covers every job a reservation can produce plus slack for
		// the rare unreserved submit (a leader that raced past admission), so
		// sends below almost never block — and a blocked send only parks the
		// request's point goroutine, never a pool worker.
		jobs:     make(chan func(), maxQueue+sims+64),
		sims:     sims,
		maxQueue: maxQueue,
		tokens:   capacity,
		capacity: capacity,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < sims; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	return p
}

// Admit reserves n computation slots. It refuses — returning a suggested
// Retry-After and ok=false — when the queue would exceed its depth bound or,
// with a latency bound configured and a cost estimate available, when the
// projected wait for the new work would exceed that bound.
func (p *simPool) Admit(n int, bound, pointCost time.Duration) (retryAfter time.Duration, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	depth := p.reserved + p.queued
	est := p.estimateLocked(depth+n, pointCost)
	if depth+n > p.maxQueue || (bound > 0 && pointCost > 0 && est > bound) {
		if est < time.Second {
			est = time.Second
		}
		return est, false
	}
	p.reserved += n
	return 0, true
}

// estimateLocked projects how long newly admitted work would wait + run:
// every queued/reserved/in-flight point ahead of it plus itself, served by
// sims workers at the observed per-point cost.
func (p *simPool) estimateLocked(depth int, pointCost time.Duration) time.Duration {
	if pointCost <= 0 {
		return 0
	}
	waves := (depth + p.inflight + p.sims - 1) / p.sims
	return time.Duration(waves) * pointCost
}

// Release returns unused reservations (clamped — racing leaders may have
// consumed more than this request reserved).
func (p *simPool) Release(n int) {
	p.mu.Lock()
	p.reserved -= n
	if p.reserved < 0 {
		p.reserved = 0
	}
	p.mu.Unlock()
}

// Submit converts one reservation into a queued job and eventually runs it
// on a pool worker holding `width` CPU tokens.
func (p *simPool) Submit(width int, run func()) {
	p.mu.Lock()
	if p.reserved > 0 {
		p.reserved--
	}
	p.queued++
	p.mu.Unlock()
	p.jobs <- func() {
		p.acquire(width)
		p.mu.Lock()
		p.queued--
		p.inflight++
		p.mu.Unlock()
		run()
		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
		p.release(width)
	}
}

func (p *simPool) acquire(width int) {
	if width > p.capacity {
		width = p.capacity
	}
	if width < 1 {
		width = 1
	}
	p.mu.Lock()
	for p.tokens < width {
		p.cond.Wait()
	}
	p.tokens -= width
	p.mu.Unlock()
}

func (p *simPool) release(width int) {
	if width > p.capacity {
		width = p.capacity
	}
	if width < 1 {
		width = 1
	}
	p.mu.Lock()
	p.tokens += width
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Depth returns the number of admitted-or-queued (not yet running) points.
func (p *simPool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved + p.queued
}

// Inflight returns the number of simulations executing right now.
func (p *simPool) Inflight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Close stops the workers after the queue drains. The server calls it once
// no more requests are being served.
func (p *simPool) Close() {
	close(p.jobs)
	p.wg.Wait()
}
