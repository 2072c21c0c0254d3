package main

import (
	"sync"
	"time"
)

// timing is one request's life in an open loop, as offsets from the loop's
// start: when it was due, when the generator released it, when a worker
// picked it up, and when it completed.
type timing struct {
	due, sent, issued, done time.Duration
	err                     error
}

// latency is the request's time from due to done: it includes every wait a
// stall ahead of it imposed, not just its own service time.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator released the request.
func (t timing) lag() time.Duration { return t.sent - t.due }

// openLoop issues n requests at a fixed rate — request i is due i/rate after
// the start — whether or not earlier ones have finished, and hands each to
// one of workers goroutines calling do(i, worker, due), which returns the
// instant the response was complete (work it does after that, such as
// checking the response, is not timed). Requests are timed from their due
// time, so a request that stalls charges its delay to every
// request queued behind it, whether they queue for a worker here or for the
// server inside do. openLoop returns once every request has completed.
func openLoop(rate float64, n, workers int, do func(i, worker int, due time.Time) (time.Time, error)) []timing {
	out := make([]timing, n)
	// Sized to the number of sends, so the generator never blocks on busy
	// workers and keeps releasing requests on schedule.
	jobs := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				t := &out[i]
				t.issued = time.Since(start)
				done, err := do(i, w, start.Add(t.due))
				t.done, t.err = done.Sub(start), err
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].due = due
		out[i].sent = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
