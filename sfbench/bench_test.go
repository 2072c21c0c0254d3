package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailLevelNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 0}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailLevel(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("tailLevel(%d) = %v leaves %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

// The spreads the steadiness mode prints must equal the ones computed with
// Python's statistics.quantiles(values, n=4) on the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 5, 2, 8}, [3]float64{1.25, 3.5, 7.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{0.9, 1.1, 1.0, 1.2, 0.95}, [3]float64{0.925, 1.0, 1.15}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if sp := spread([]float64{0.9, 1.1, 1.0, 1.2, 0.95}); math.Abs(sp-0.225) > 1e-12 {
		t.Errorf("spread = %v, want 0.225", sp)
	}
}

func TestMedianAndSummary(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	var s sample
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	sm := s.summary()
	if sm.N != 200 || sm.P50 != 100 || sm.TailAt != 95 || sm.Tail != 190 {
		t.Errorf("summary = %+v", sm)
	}
}

// A request that stalls must charge its delay to every request queued behind
// it: with one worker, request 0 holding it for 30 ms makes requests due
// 1 ms, 2 ms, ... later complete no earlier than 30 ms after the start, so
// their latency — measured from when they were due, not from when they
// started — includes the wait.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 30 * time.Millisecond
	times := openLoop(1000, 20, 1, func(i, _ int, _ time.Time) (time.Time, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	for i, tm := range times {
		if want := time.Duration(i) * time.Millisecond; tm.due != want {
			t.Errorf("request %d due at %v, want %v", i, tm.due, want)
		}
		if tm.lag() < 0 {
			t.Errorf("request %d released %v before it was due", i, -tm.lag())
		}
		if i == 0 {
			continue
		}
		if tm.done < stall {
			t.Errorf("request %d done at %v, before the stall ahead of it ended", i, tm.done)
		}
		if want := stall - tm.due; tm.latency() < want {
			t.Errorf("request %d latency %v, want at least %v of queueing behind the stall", i, tm.latency(), want)
		}
	}
}

// The check after a response is not timed: do returns the instant the
// response was complete.
func TestOpenLoopTimesUntilResponse(t *testing.T) {
	times := openLoop(100, 3, 2, func(_, _ int, _ time.Time) (time.Time, error) {
		done := time.Now()
		time.Sleep(20 * time.Millisecond) // checking the response
		return done, nil
	})
	for i, tm := range times {
		if tm.done-tm.issued >= 20*time.Millisecond {
			t.Errorf("request %d timed %v, including the untimed check", i, tm.done-tm.issued)
		}
	}
}
