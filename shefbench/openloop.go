package main

import (
	"runtime"
	"sync"
	"time"
)

// spinBelow is how close to a request's due time a worker stops
// sleeping and starts yielding in a loop: on a virtualised host a sleep
// can wake several milliseconds late, which would swamp sub-millisecond
// requests.
const spinBelow = 6 * time.Millisecond

// waitUntil returns at due.
func waitUntil(due time.Time) {
	if wait := time.Until(due); wait > spinBelow {
		time.Sleep(wait - spinBelow)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openResult is what an open-loop window did, summed over its workers.
type openResult struct {
	attempted, failed int
	// backlog counts requests that fell due inside the window but had
	// not been sent when it closed.
	backlog int
	// lagMs is how late each worker woke for a request it was idle
	// for: the generator's own timing error, not queueing.
	lagMs []float64
}

// backlogAllowed is how many unsent requests the window may end with
// before its latencies stop describing a steady state: a tenth of a
// second of arrivals, plus one request per worker.
func backlogAllowed(rate float64, workers int) int {
	return int(rate/10) + workers
}

// runOpen drives one worker per gen for window, each sending its own
// Poisson schedule. prepare (optional) builds a request's inputs while
// the worker waits for it to fall due. exec performs the request; it
// must time it from due, the moment it was scheduled, so that a stall is
// charged to every request it delays. sub numbers the window's subs
// equal slices the request fell due in. exec returns false when the
// request failed.
func runOpen(window time.Duration, subs int, gens []*gen, prepare func(w int, o op), exec func(w int, o op, due time.Time, sub int) bool) openResult {
	start := time.Now()
	end := start.Add(window)
	res := make([]openResult, len(gens))
	var wg sync.WaitGroup
	for w := range gens {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &res[w]
			due := start
			for {
				o := gens[w].next()
				due = due.Add(o.gap)
				if !due.Before(end) {
					return
				}
				now := time.Now()
				if now.After(end) {
					r.backlog++
					continue
				}
				if prepare != nil {
					prepare(w, o)
					now = time.Now()
				}
				if due.After(now) {
					waitUntil(due)
					r.lagMs = append(r.lagMs, ms(time.Since(due)))
				}
				r.attempted++
				if !exec(w, o, due, int(due.Sub(start)*time.Duration(subs)/window)) {
					r.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	var total openResult
	for _, r := range res {
		total.attempted += r.attempted
		total.failed += r.failed
		total.backlog += r.backlog
		total.lagMs = append(total.lagMs, r.lagMs...)
	}
	return total
}
