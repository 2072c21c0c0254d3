package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's tracing: spans it records around its calls
// into each layer, the program's own Tracer events captured in memory, and
// the per-layer self-time ledger built from both.

// sink collects a sparsefusion.Tracer's JSON lines in memory.
type sink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// event is one parsed tracer line.
type event map[string]any

func (e event) name() string { s, _ := e["ev"].(string); return s }

func (e event) num(key string) float64 {
	n, ok := e[key].(json.Number)
	if !ok {
		return 0
	}
	f, _ := n.Float64() // the tracer writes only valid JSON numbers
	return f
}

func (e event) dur(key string) time.Duration { return time.Duration(e.num(key)) }

func (e event) str(key string) string { s, _ := e[key].(string); return s }

// take parses and clears everything written so far.
func (s *sink) take() []event {
	s.mu.Lock()
	data := append([]byte(nil), s.buf.Bytes()...)
	s.buf.Reset()
	s.mu.Unlock()
	var out []event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		d := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		d.UseNumber()
		var e event
		if d.Decode(&e) == nil {
			out = append(out, e)
		}
	}
	return out
}

// span is one timed interval of one request. Spans the program reports a
// duration for (Report.Time, tracer events) carry no start of their own and
// are marked reported; they nest under the span of the call that produced
// them.
type span struct {
	Req      int    `json:"req"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns,omitempty"`
	DurNS    int64  `json:"dur_ns"`
	Reported bool   `json:"reported,omitempty"`
	// FP links a cache span to the cache event that reports its duration.
	FP string `json:"-"`
}

// reqSpans are the spans of one request; span 0 is the request itself, from
// its due time to its completion, and belongs to no layer.
type reqSpans struct {
	origin time.Time
	spans  []span
}

func newReq(req int, origin, due, done time.Time) *reqSpans {
	r := &reqSpans{origin: origin}
	r.spans = append(r.spans, span{Req: req, Parent: -1, Layer: "", Name: "request",
		StartNS: due.Sub(origin).Nanoseconds(), DurNS: done.Sub(due).Nanoseconds()})
	return r
}

// timed records a span measured by the benchmark.
func (r *reqSpans) timed(parent int, layer, name string, start, end time.Time) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.spans[0].Req, ID: id, Parent: parent, Layer: layer, Name: name,
		StartNS: start.Sub(r.origin).Nanoseconds(), DurNS: end.Sub(start).Nanoseconds()})
	return id
}

// reported records a duration the program reported for work inside parent.
func (r *reqSpans) reported(parent int, layer, name string, d time.Duration) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.spans[0].Req, ID: id, Parent: parent, Layer: layer, Name: name,
		DurNS: d.Nanoseconds(), Reported: true})
	return id
}

// ledger accumulates layer self-times over the requests of a traced run.
type ledger struct {
	mu   sync.Mutex
	reqs []*reqSpans
}

func (l *ledger) add(r *reqSpans) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r)
	l.mu.Unlock()
}

// accounting is the traced wall time of the average request split into the
// self-time of each layer plus what no layer's span covers.
type accounting struct {
	N        int
	WallMS   float64            // mean traced wall time per request
	SelfMS   map[string]float64 // mean self-time per request, by layer
	Residual float64            // mean uncovered time per request, ms
}

// account computes the per-layer split. A span's self-time is its duration
// minus its children's; the residual is the request's wall time minus every
// layer's self-time.
func (l *ledger) account() accounting {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := accounting{N: len(l.reqs), SelfMS: map[string]float64{}}
	if a.N == 0 {
		return a
	}
	var wall, covered float64
	for _, r := range l.reqs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans[1:] {
			child[s.Parent] += s.DurNS
		}
		wall += float64(r.spans[0].DurNS)
		for i, s := range r.spans[1:] {
			self := float64(s.DurNS - child[i+1])
			a.SelfMS[s.Layer] += self
			covered += self
		}
	}
	n := float64(a.N) * 1e6
	for k, v := range a.SelfMS {
		a.SelfMS[k] = v / n
	}
	a.WallMS = wall / n
	a.Residual = (wall - covered) / n
	return a
}

// move shifts ms of mean self-time from one layer to another: used for the
// admission wait, which the program reports per admission rather than per
// request, so it is known only in total.
func (a *accounting) move(from, to string, ms float64) {
	a.SelfMS[from] -= ms
	a.SelfMS[to] += ms
}

// writeSpans stores the spans as JSON lines under dir for later reading.
func (l *ledger) writeSpans(dir, name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range l.reqs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// missDurations maps a fingerprint prefix to the build durations its
// cache.miss events reported, in order.
func missDurations(evs []event) map[string][]time.Duration {
	m := map[string][]time.Duration{}
	for _, e := range evs {
		if e.name() == "cache.miss" {
			fp := e.str("fp")
			m[fp] = append(m[fp], e.dur("dur_ns"))
		}
	}
	return m
}

// fillCacheSpans sets each cache-miss span's duration from the cache.miss
// events, matching by fingerprint in request order.
func (l *ledger) fillCacheSpans(misses map[string][]time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.reqs, func(i, j int) bool { return l.reqs[i].spans[0].Req < l.reqs[j].spans[0].Req })
	for _, r := range l.reqs {
		for i := range r.spans {
			s := &r.spans[i]
			if s.FP == "" {
				continue
			}
			if q := misses[s.FP]; len(q) > 0 {
				s.DurNS = q[0].Nanoseconds()
				misses[s.FP] = q[1:]
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// inspectionMetrics averages the inspector stage timings over the
// inspect.* events of a traced run.
func inspectionMetrics(l map[string]float64, evs []event) {
	var ico, lbc, pairing, merge, slack, pack, compile, relay, dag sample
	for _, e := range evs {
		switch e.name() {
		case "inspect.ico":
			ico = append(ico, ms(e.dur("dur_ns")))
			lbc = append(lbc, ms(e.dur("lbc_ns")))
			pairing = append(pairing, ms(e.dur("pairing_ns")))
			merge = append(merge, ms(e.dur("merge_ns")))
			slack = append(slack, ms(e.dur("slack_ns")))
			pack = append(pack, ms(e.dur("pack_ns")))
		case "inspect.compile":
			compile = append(compile, ms(e.dur("dur_ns")))
		case "inspect.relayout":
			relay = append(relay, ms(e.dur("dur_ns")))
		case "inspect.dag_build":
			if _, ok := e["dur_ns"]; ok {
				dag = append(dag, ms(e.dur("dur_ns")))
			}
		}
	}
	l["core.ico_ms"] = ico.mean()
	l["core.lbc_ms"] = lbc.mean()
	l["core.pairing_ms"] = pairing.mean()
	l["core.merge_ms"] = merge.mean()
	l["core.slack_ms"] = slack.mean()
	l["core.pack_ms"] = pack.mean()
	l["core.compile_ms"] = compile.mean()
	l["relayout.build_ms"] = relay.mean()
	l["combos.build_ms"] = dag.mean()
}

// accountingMetrics reports the traced wall time of the average request (or
// solve) split by layer.
func accountingMetrics(l map[string]float64, a accounting) {
	if a.WallMS > 0 && math.Abs(a.Residual) > 0.1*a.WallMS {
		fmt.Fprintf(os.Stderr, "sfbench: layer self-times leave %.1f%% of the traced wall time unaccounted (more than 10%%)\n", 100*a.Residual/a.WallMS)
	}
	for _, layer := range layers {
		l["self_ms."+layer] = a.SelfMS[layer]
	}
	l["layers.wall_ms"] = a.WallMS
	l["layers.residual_share"] = 0
	if a.WallMS > 0 {
		l["layers.residual_share"] = a.Residual / a.WallMS
	}
}

// layers are the program's modules a request's time is split across, plus
// the benchmark's own harness (generator lateness and client queueing).
var layers = []string{"sparsefusion", "serve", "cache", "combos", "core", "relayout", "exec", "kernels", "harness"}
