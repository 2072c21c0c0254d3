// Command sfbench is the repository's benchmark: it drives the sparsefusion
// facade through three seeded workloads and prints every end-to-end metric
// (or, traced, every per-layer metric) BENCHMARK.json declares, checking
// every output against a schedule-free oracle. README.md documents the
// workloads; run it through run.sh from the repository root:
//
//	bash sfbench/run.sh --workload pcg-lap3d --seed 1 --seconds 20 --trace 0
//	bash sfbench/run.sh --steady 10 --seconds 20  # per-workload medians and spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up from scratch;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spanDir  string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	wrongCount        int
	demotions         int            // executor-ladder demotions request runs took
	demotionReasons   map[string]int // request operations by their last demotion, build-time ones included
	bypassed          []string       // per-layer metric prefixes of layers the workload does not load
	errors            []string       // the first few failures, for the log
	e2e, layer        map[string]float64
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}, demotionReasons: map[string]int{}}
}

// fail records a request that returned an error or was refused.
func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.errors) < 5 {
		o.errors = append(o.errors, msg)
	}
}

// wrong records an incorrect output: it fails the request and the run.
func (o *outcome) wrong(msg string) {
	o.wrongCount++
	o.fail("INCORRECT " + msg)
}

var workloads = map[string]func(config) (*outcome, error){
	"pcg-lap3d":   runPCG,
	"serve-warm":  func(c config) (*outcome, error) { return runServe(c, false) },
	"serve-churn": func(c config) (*outcome, error) { return runServe(c, true) },
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := flag.Int("steady", 0, "run each workload this many times (seeds seed..seed+N-1, one process each) and print every end-to-end metric's median and quartile spread")
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *steady > 0 {
		os.Exit(steadiness(spec, *workload, *seed, *seconds, *steady))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spanDir:  filepath.Join(".bench_build", "spans"),
	}
	meta := collectMeta()
	out, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}

	want, values := spec.EndToEnd, out.e2e
	if cfg.trace {
		want, values = spec.PerLayer, out.layer
		values["failed_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	}
	res := result{
		Correct:   out.wrongCount == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && bypasses(out.bypassed, m.Name) {
			v, ok = 0, true // the workload does not load this layer
		}
		if !ok || !finite(v) {
			fatal(fmt.Errorf("%s: metric %s not measured (value %v)", cfg.workload, m.Name, v))
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	info, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"run_meta": meta, "detail": out.detail, "errors": out.errors,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfbench: run details:", err)
	}
	fmt.Println(string(info))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Attempted == 0 {
		os.Exit(1)
	}
}

func bypasses(prefixes []string, name string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sfbench:", err)
	os.Exit(1)
}

// memPeak samples the Go runtime's heap-object bytes every 20 ms; reading
// runtime/metrics does not stop the world, so sampling adds no pauses.
type memPeak struct {
	stopc chan struct{}
	done  chan float64
}

func startMemPeak() *memPeak {
	m := &memPeak{stopc: make(chan struct{}), done: make(chan float64, 1)}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() float64 { metrics.Read(s); return float64(s[0].Value.Uint64()) / (1 << 20) }
	go func() {
		peak := read()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, read())
			case <-m.stopc:
				m.done <- max(peak, read())
				return
			}
		}
	}()
	return m
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stop ends sampling and returns the peak in MiB.
func (m *memPeak) stop() float64 {
	close(m.stopc)
	return <-m.done
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
