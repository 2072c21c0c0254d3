// Command spbench benchmarks the runtime against fixed-seed synthetic
// fixtures and writes the results as JSON at the repository root:
//
//	-mode exec       — compiled executor (flat program + batch dispatch +
//	                   spin-barrier pool) vs the packed executor on the
//	                   schedule-order re-layout, plus barrier throughput
//	                   (BENCH_exec.json)
//	-mode inspector  — the parallel, allocation-lean inspector vs the frozen
//	                   serial reference (internal/refinspect), with
//	                   per-stage timings and the break-even run count
//	                   (BENCH_inspector.json)
//	-mode serve      — the fusion-as-a-service path: cold vs warm first
//	                   solves through the content-addressed schedule cache,
//	                   warm steady-state solves vs inspect-per-request,
//	                   concurrent serving throughput and latency through the
//	                   bounded server, cache hit rate, and the cold-start
//	                   thundering-herd duplicate-inspection count
//	                   (BENCH_serve.json)
//	-mode profile    — the hot-path execution profiler (exec.Recorder):
//	                   per-s-partition barrier-wait and worker load-imbalance
//	                   breakdown of a fused solve, plus the instrumentation
//	                   overhead of recording. Enforces the telemetry overhead
//	                   budget unconditionally: a recorder-enabled warm solve
//	                   more than 5% slower than the recorder-disabled one
//	                   aborts the run (BENCH_profile.json)
//	-mode scale      — the executor scaling curve: worker counts 1..NumCPU
//	                   on the gs-pair fixture, static packed execution vs
//	                   work-stealing packed execution with a first-touch
//	                   layout, with per-width barrier cost, steal rate, and
//	                   parallel efficiency. Output bit-identity between the
//	                   two executors is enforced unconditionally at every
//	                   width; -check additionally gates stealing to never be
//	                   slower than static beyond a 10% noise allowance
//	                   (BENCH_scale.json)
//	-mode chain      — k-kernel chain composition: the same chain at the
//	                   three composition policies — fully composed (one
//	                   fused schedule spanning all k loops), pairwise
//	                   (adjacent pairs fused, the paper's Table 1 shape),
//	                   and unfused (one schedule per kernel) — with exact
//	                   barriers-per-pass counts, per-run times, and the
//	                   break-even run count for the composed inspection;
//	                   plus the end-to-end preconditioned CG solver, fused
//	                   whole-iteration chain vs the host-orchestrated
//	                   pairwise-fused solver. Bit-identity of every fused
//	                   execution against its reference is enforced
//	                   unconditionally; -check additionally gates the
//	                   composed chain to strictly fewer barriers than
//	                   pairwise and fused PCG to never lose to pairwise
//	                   beyond a 10% noise allowance (BENCH_chain.json)
//	-mode chaos      — the deterministic fault-injection matrix
//	                   (internal/chaos): seeded cancel storms against the
//	                   compiled executor, an injected worker panic, an
//	                   injected numerical breakdown, a slow worker under the
//	                   barrier watchdog, a corrupted and a truncated
//	                   disk-tier schedule file, and an admission-control
//	                   storm against a saturated server. Every scenario runs
//	                   under a harness watchdog and must end in the expected
//	                   typed error (or a clean result), with a follow-up
//	                   clean run reproducing the fault-free reference bit
//	                   for bit. Also measures what an armed-but-idle
//	                   cancellation context costs a run and enforces the
//	                   ≤5% overhead budget unconditionally
//	                   (BENCH_chaos.json)
//
// Fixtures are deterministic, so reruns on one machine are comparable; each
// file records the machine shape alongside the numbers. -check re-measures
// and compares against the committed JSON instead of overwriting it, exiting
// nonzero when a headline metric regressed by more than 25% — the guard the
// Makefile's bench targets and CI can run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sf "sparsefusion"

	"sparsefusion/internal/chaos"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/refinspect"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/telemetry"
)

type executorResult struct {
	Name           string  `json:"name"`
	N              int     `json:"n"`
	Iterations     int     `json:"iterations"`
	SPartitions    int     `json:"s_partitions"`
	MaxWidth       int     `json:"max_width"`
	Interleaved    bool    `json:"interleaved"`
	CompiledNs     int64   `json:"compiled_ns_per_run"`
	CompiledNsIter float64 `json:"compiled_ns_per_iter"`
	// Packed columns: the same compiled program running against the
	// schedule-order re-layout (internal/relayout). RelayoutNs is the
	// one-time cost of building the layout; RelayoutBreakEvenRuns is how
	// many executor runs amortize it against the per-run gain.
	PackedNs              int64   `json:"packed_ns_per_run"`
	PackedNsIter          float64 `json:"packed_ns_per_iter"`
	SpeedupPacked         float64 `json:"speedup_packed_vs_compiled"`
	RelayoutNs            int64   `json:"relayout_ns"`
	RelayoutWords         int64   `json:"relayout_words"`
	RelayoutBreakEvenRuns float64 `json:"relayout_break_even_runs"`
}

type barrierResult struct {
	Workers        int     `json:"workers"`
	NsPerBarrier   int64   `json:"ns_per_barrier"`
	BarriersPerSec float64 `json:"barriers_per_sec"`
}

// stageNs is InspectorTimings in JSON form.
type stageNs struct {
	Setup   int64 `json:"setup_ns"`
	Head    int64 `json:"head_ns"`
	Pairing int64 `json:"pairing_ns"`
	Merge   int64 `json:"merge_ns"`
	Slack   int64 `json:"slack_ns"`
	Pack    int64 `json:"pack_ns"`
}

func toStageNs(t core.InspectorTimings) stageNs {
	return stageNs{
		Setup:   t.Setup.Nanoseconds(),
		Head:    t.Head.Nanoseconds(),
		Pairing: t.Pairing.Nanoseconds(),
		Merge:   t.Merge.Nanoseconds(),
		Slack:   t.Slack.Nanoseconds(),
		Pack:    t.Pack.Nanoseconds(),
	}
}

type inspectorResult struct {
	Name       string `json:"name"`
	N          int    `json:"n"`
	Iterations int    `json:"iterations"`
	// ReferenceNs is the frozen seed-era serial inspector (refinspect.ICO).
	ReferenceNs int64 `json:"reference_ns"`
	// SerialNs / ParallelNs are the optimized pipeline at Workers=1 and
	// Workers=threads; stage breakdowns accompany each.
	SerialNs       int64   `json:"serial_ns"`
	ParallelNs     int64   `json:"parallel_ns"`
	SerialStages   stageNs `json:"serial_stages"`
	ParallelStages stageNs `json:"parallel_stages"`
	// ByteIdentical confirms all three pipelines serialized to the same
	// schedule bytes (the determinism contract, also asserted by tests).
	ByteIdentical bool    `json:"byte_identical"`
	SpeedupSerial float64 `json:"speedup_serial_vs_reference"`
	Speedup       float64 `json:"speedup_vs_reference"`
	// Break-even economics: the fused executor gains FusedGainNs per run
	// over the unfused per-kernel LBC chain, so the parallel inspection
	// amortizes after BreakEvenRuns executor runs.
	FusedNs       int64   `json:"fused_ns_per_run"`
	UnfusedNs     int64   `json:"unfused_ns_per_run"`
	FusedGainNs   int64   `json:"fused_gain_ns_per_run"`
	BreakEvenRuns float64 `json:"break_even_runs"`
}

// serveResult is one subject of the -mode serve suite: the economics of the
// content-addressed schedule cache and the bounded serving layer.
type serveResult struct {
	Name          string `json:"name"`
	N             int    `json:"n"`
	Clients       int    `json:"clients"`
	MaxConcurrent int    `json:"max_concurrent"`
	// First-operation economics. Cold is the first request for a pattern on
	// an empty cache: full inspection plus one solve. Warm is the same
	// request against the populated cache (kernel construction + artifact
	// binding + one solve, no inspection). InspectPerRequest is the
	// no-cache baseline a service without schedule reuse would pay per
	// request.
	ColdFirstSolveNs    int64 `json:"cold_first_solve_ns"`
	WarmFirstSolveNs    int64 `json:"warm_first_solve_ns"`
	InspectPerRequestNs int64 `json:"inspect_per_request_ns"`
	// WarmSolveNs is the steady-state hot path: one session solving on the
	// shared cached artifacts. SpeedupWarmVsInspect is InspectPerRequest
	// over WarmSolve — the factor the cache buys a pattern-stable tenant.
	WarmSolveNs          int64   `json:"warm_solve_ns"`
	SpeedupWarmVsInspect float64 `json:"speedup_warm_solve_vs_inspect_per_request"`
	// Concurrent serving: Clients sessions solving through a server bounded
	// at MaxConcurrent, for the measuring window.
	Solves       int64   `json:"solves"`
	SolvesPerSec float64 `json:"solves_per_sec"`
	P50Ns        int64   `json:"latency_p50_ns"`
	P99Ns        int64   `json:"latency_p99_ns"`
	ServerQueued int64   `json:"server_queued"`
	// CacheHitRate is the fraction of operation constructions served without
	// inspection; HerdDuplicateInspections counts inspections beyond the
	// first under a cold-start thundering herd — the singleflight contract
	// says it is always 0, and the benchmark aborts otherwise.
	CacheHitRate             float64 `json:"cache_hit_rate"`
	HerdDuplicateInspections int64   `json:"herd_duplicate_inspections"`
}

// scaleResult is one worker count of the -mode scale sweep: the static
// packed executor (one slot per w-partition, pool as wide as the schedule)
// against the work-stealing packed executor (pool of exactly Workers slots
// multiplexing the schedule, streams built first-touch by the owning slots).
type scaleResult struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// StaticNs / StealNs are per-run times of the two executors at this
	// worker count.
	StaticNs int64 `json:"static_ns_per_run"`
	StealNs  int64 `json:"steal_ns_per_run"`
	// Speedup is the stealing executor's gain over its own 1-worker time;
	// Efficiency divides that by Workers — the scaling curve's headline.
	Speedup    float64 `json:"speedup_vs_one_worker"`
	Efficiency float64 `json:"efficiency"`
	// BarrierNs is one empty barrier round-trip at this width (combining
	// tree above the threshold, flat sense-reversing word below).
	BarrierNs int64 `json:"ns_per_barrier"`
	// StealsPerRun and ReseedEvents aggregate the runner's steal telemetry
	// over the instrumented runs at this width.
	StealsPerRun float64 `json:"steals_per_run"`
	ReseedEvents int64   `json:"reseed_events"`
	// BitIdentical confirms the stealing run produced float64-identical
	// output to the static run (the fixture is gather-only, so any
	// divergence is an executor bug; the benchmark aborts when false).
	BitIdentical bool `json:"bit_identical"`
}

// partitionProfile is one s-partition's barrier economics in JSON form.
type partitionProfile struct {
	S      int   `json:"s"`
	Width  int   `json:"width"`
	Iters  int   `json:"iters"`
	Rounds int64 `json:"rounds"`
	// BusyNs sums all workers' run time at this barrier across recorded runs;
	// CriticalNs sums the per-round maximum (the partition's critical path);
	// WaitNs sums the time workers spent waiting at the barrier.
	BusyNs     int64 `json:"busy_ns"`
	CriticalNs int64 `json:"critical_path_ns"`
	WaitNs     int64 `json:"barrier_wait_ns"`
	// Imbalance is WaitNs over Width*CriticalNs: the fraction of worker time
	// at this barrier lost to waiting.
	Imbalance float64 `json:"imbalance"`
}

// profileResult is one fixture's hot-path profile: the recorder's overhead and
// the load-imbalance breakdown it measured.
type profileResult struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	Iterations  int    `json:"iterations"`
	SPartitions int    `json:"s_partitions"`
	MaxWidth    int    `json:"max_width"`
	// BaselineNs is a runner with no recorder attached; DisabledNs has one
	// attached but off; EnabledNs records every run. OverheadPct is the
	// enabled-over-disabled overhead the ≤5% budget gates.
	BaselineNs  int64   `json:"baseline_ns_per_run"`
	DisabledNs  int64   `json:"disabled_ns_per_run"`
	EnabledNs   int64   `json:"enabled_ns_per_run"`
	OverheadPct float64 `json:"overhead_pct"`
	// Recorded profile, aggregated over RecordedRuns executions.
	RecordedRuns     int                `json:"recorded_runs"`
	RecordedBarriers int64              `json:"recorded_barriers"`
	WorkerBusyNs     []int64            `json:"worker_busy_ns"`
	WorkerWaitNs     []int64            `json:"worker_wait_ns"`
	Imbalance        float64            `json:"imbalance"`
	DroppedSpans     int64              `json:"dropped_spans"`
	Partitions       []partitionProfile `json:"partitions"`
}

// chainResult is one subject of the -mode chain suite: a k-kernel chain at
// the three composition policies, or the end-to-end fused PCG solver against
// its pairwise-fused host-orchestrated counterpart.
type chainResult struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	K    int    `json:"chain_length"`
	// Exact barrier economics for the chain subjects: how many barrier
	// sequences one pass over the chain pays under each composition policy
	// (schedule s-partition counts, not timings). BarrierReduction is
	// pairwise over composed — the ~k× the tentpole exists for.
	FusedBarriers    int     `json:"fused_barriers,omitempty"`
	PairwiseBarriers int     `json:"pairwise_barriers,omitempty"`
	UnfusedBarriers  int     `json:"unfused_barriers,omitempty"`
	BarrierReduction float64 `json:"barrier_reduction_vs_pairwise,omitempty"`
	// Per-pass (chain subjects) or per-solve (pcg subject) wall times.
	FusedNs           int64   `json:"fused_ns_per_run"`
	PairwiseNs        int64   `json:"pairwise_ns_per_run"`
	UnfusedNs         int64   `json:"unfused_ns_per_run,omitempty"`
	SpeedupVsPairwise float64 `json:"speedup_vs_pairwise"`
	SpeedupVsUnfused  float64 `json:"speedup_vs_unfused,omitempty"`
	// Composition economics: the one-time cost of inspecting the composed
	// chain and how many runs amortize it against the cheapest alternative
	// (unfused for the chain subjects, the pairwise solver for pcg).
	InspectNs     int64   `json:"inspect_ns"`
	BreakEvenRuns float64 `json:"break_even_runs"`
	// Solver columns (pcg subject only): iterations to convergence and the
	// barriers per solver iteration the fused run observed — one barrier per
	// s-partition of the single composed schedule.
	Iterations      int `json:"iterations,omitempty"`
	BarriersPerIter int `json:"barriers_per_iteration,omitempty"`
	// BitIdentical confirms the fused execution reproduced its reference bit
	// for bit (the sequential kernel-by-kernel chain, or the one-worker
	// solve); a mismatch aborts the run.
	BitIdentical bool `json:"bit_identical"`
}

// chaosResult is one scenario of the -mode chaos suite. Chaos scenarios are
// pass/fail while measuring — an untyped error, a hang past the harness
// watchdog, or a diverged follow-up run aborts the whole suite — so the
// recorded numbers describe *how* the run passed (how many storm requests
// were cancelled vs completed, how many admission rejections of each kind),
// not whether it did.
type chaosResult struct {
	Scenario string `json:"scenario"`
	// Seed reproduces the scenario exactly: same stall, same flipped byte,
	// same cancellation instants.
	Seed uint64 `json:"seed,omitempty"`
	Runs int    `json:"runs,omitempty"`
	// Storm outcome tallies (cancel-storm and overload subjects).
	Cancelled        int `json:"cancelled,omitempty"`
	Completed        int `json:"completed,omitempty"`
	Overloaded       int `json:"overloaded,omitempty"`
	DeadlineExceeded int `json:"deadline_exceeded,omitempty"`
	// Quarantines is how many defective disk-tier files the cache moved
	// aside while rebuilding (disk-cache subjects).
	Quarantines int64 `json:"quarantines,omitempty"`
	// Outcome names the typed error (or clean result) the scenario ended in.
	Outcome string `json:"outcome"`
	// BitIdentical confirms the post-fault clean run reproduced the
	// fault-free reference bit for bit; a mismatch aborts the run. True for
	// admission-only subjects with no numeric output to compare.
	BitIdentical bool `json:"bit_identical"`
	// Armed-context overhead (cancel-poll-overhead subject): a plain Run vs
	// RunContext under a context that never fires. OverheadPct above the
	// ≤5% budget aborts the run.
	PlainNs     int64   `json:"plain_ns,omitempty"`
	ArmedNs     int64   `json:"armed_ns,omitempty"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

type report struct {
	// Meta stamps the machine and source revision that produced the numbers;
	// shared by every BENCH_*.json this command writes.
	Meta      telemetry.RunMeta `json:"run_meta"`
	Threads   int               `json:"threads"`
	Executor  []executorResult  `json:"executor,omitempty"`
	Barrier   []barrierResult   `json:"barrier,omitempty"`
	Inspector []inspectorResult `json:"inspector,omitempty"`
	Serve     []serveResult     `json:"serve,omitempty"`
	Profile   []profileResult   `json:"profile,omitempty"`
	Scale     []scaleResult     `json:"scale,omitempty"`
	Chain     []chainResult     `json:"chain,omitempty"`
	Chaos     []chaosResult     `json:"chaos,omitempty"`
}

type fixture struct {
	name  string
	reuse float64
	mk    func(n int) ([]kernels.Kernel, *core.Loops)
}

var fixtures = []fixture{
	{"gs-pair/separated", 0.5, gsPair},
	{"gs-pair/interleaved", 1.5, gsPair},
	{"trsv-mv-csc/separated", 0.5, trsvMvCSC},
}

func main() {
	mode := flag.String("mode", "exec", "benchmark suite: exec, inspector, serve, profile, scale, chain or chaos")
	out := flag.String("out", "", "output file (default BENCH_<mode>.json)")
	threads := flag.Int("threads", 8, "schedule width r (and inspector workers)")
	n := flag.Int("n", 40000, "fixture size")
	minTime := flag.Duration("mintime", time.Second, "minimum measuring time per subject")
	check := flag.Bool("check", false, "compare fresh numbers against the committed JSON instead of writing; exit nonzero on >25% regression")
	flag.Parse()

	if *out == "" {
		*out = "BENCH_" + *mode + ".json"
	}
	rep := report{
		Meta:    telemetry.CollectRunMeta(),
		Threads: *threads,
	}
	switch *mode {
	case "exec":
		runExec(&rep, *threads, *n, *minTime)
	case "inspector":
		runInspector(&rep, *threads, *n, *minTime)
	case "serve":
		runServe(&rep, *threads, *n, *minTime)
	case "profile":
		runProfile(&rep, *threads, *n, *minTime)
	case "scale":
		runScale(&rep, *threads, *n, *minTime)
	case "chain":
		runChain(&rep, *threads, *n, *minTime)
	case "chaos":
		runChaos(&rep, *threads, *n, *minTime)
	default:
		log.Fatalf("unknown -mode %q (want exec, inspector, serve, profile, scale, chain or chaos)", *mode)
	}

	if *check {
		if err := checkRegression(*out, &rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: within 25%% of committed numbers\n", *out)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func runExec(rep *report, threads, n int, minTime time.Duration) {
	for _, fx := range fixtures {
		ks, loops := fx.mk(n)
		sched, err := core.ICO(loops, icoParams(threads, fx.reuse, 0))
		if err != nil {
			log.Fatalf("%s: %v", fx.name, err)
		}
		runner, err := exec.CompileFused(ks, sched)
		if err != nil {
			log.Fatalf("%s: compile: %v", fx.name, err)
		}
		compiled := measure(minTime, func() { runner.Run(threads) })

		// Packed path: time the one-shot layout build, then the same runner
		// with the layout attached.
		t0 := time.Now()
		lay, err := relayout.Build(runner.Program(), ks)
		if err != nil {
			log.Fatalf("%s: relayout: %v", fx.name, err)
		}
		relayoutNs := time.Since(t0)
		if err := runner.AttachLayout(lay); err != nil {
			log.Fatalf("%s: attach: %v", fx.name, err)
		}
		packed := measure(minTime, func() { runner.Run(threads) })
		runner.DetachLayout()
		gain := compiled - packed
		breakEven := float64(-1)
		if gain > 0 {
			breakEven = float64(relayoutNs.Nanoseconds()) / float64(gain.Nanoseconds())
		}

		iters := sched.NumIterations()
		rep.Executor = append(rep.Executor, executorResult{
			Name:           fx.name,
			N:              n,
			Iterations:     iters,
			SPartitions:    sched.NumSPartitions(),
			MaxWidth:       sched.MaxWidth(),
			Interleaved:    sched.Interleaved,
			CompiledNs:     compiled.Nanoseconds(),
			CompiledNsIter: ratio(float64(compiled.Nanoseconds()), float64(iters)),

			PackedNs:              packed.Nanoseconds(),
			PackedNsIter:          ratio(float64(packed.Nanoseconds()), float64(iters)),
			SpeedupPacked:         ratio(float64(compiled.Nanoseconds()), float64(packed.Nanoseconds())),
			RelayoutNs:            relayoutNs.Nanoseconds(),
			RelayoutWords:         int64(lay.Words()),
			RelayoutBreakEvenRuns: breakEven,
		})
		fmt.Printf("%-22s compiled %10v  packed %10v  packed/compiled %.2fx  relayout %v (break-even %.1f runs)\n",
			fx.name, compiled, packed,
			ratio(float64(compiled), float64(packed)), relayoutNs, breakEven)
	}

	for _, workers := range []int{2, 4, 8} {
		d := barrierCost(minTime/2, workers)
		rep.Barrier = append(rep.Barrier, barrierResult{
			Workers:        workers,
			NsPerBarrier:   d.Nanoseconds(),
			BarriersPerSec: ratio(1e9, float64(d.Nanoseconds())),
		})
		fmt.Printf("barrier w=%d %v/barrier\n", workers, d)
	}
}

// ratio returns num/den, or 0 when den is 0 — degenerate fixtures (n=0)
// produce zero timings and zero iteration counts, and +Inf/NaN are not
// JSON-encodable.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func icoParams(threads int, reuse float64, workers int) core.Params {
	return core.Params{
		Threads: threads, Workers: workers, ReuseRatio: reuse,
		LBC: lbc.Params{InitialCut: 3, Agg: 8},
	}
}

func runInspector(rep *report, threads, n int, minTime time.Duration) {
	for _, fx := range fixtures {
		ks, loops := fx.mk(n)

		refSched, err := refinspect.ICO(loops, icoParams(threads, fx.reuse, 0))
		if err != nil {
			log.Fatalf("%s: reference: %v", fx.name, err)
		}
		reference := measure(minTime, func() {
			if _, err := refinspect.ICO(loops, icoParams(threads, fx.reuse, 0)); err != nil {
				log.Fatal(err)
			}
		})

		var serialSched, parSched *core.Schedule
		var serialTm, parTm core.InspectorTimings
		serial := measure(minTime, func() {
			serialSched, serialTm, err = core.ICOTimed(loops, icoParams(threads, fx.reuse, 1))
			if err != nil {
				log.Fatal(err)
			}
		})
		parallel := measure(minTime, func() {
			parSched, parTm, err = core.ICOTimed(loops, icoParams(threads, fx.reuse, threads))
			if err != nil {
				log.Fatal(err)
			}
		})

		refBytes := refSched.Bytes()
		identical := bytes.Equal(refBytes, serialSched.Bytes()) &&
			bytes.Equal(refBytes, parSched.Bytes())
		if !identical {
			log.Fatalf("%s: schedules diverged between reference and optimized inspector", fx.name)
		}

		fused, unfused := executorEconomics(ks, loops, parSched, threads, minTime)
		gain := unfused - fused
		breakEven := float64(-1)
		if gain > 0 && gain.Nanoseconds() > 0 {
			breakEven = float64(parallel.Nanoseconds()) / float64(gain.Nanoseconds())
		}
		rep.Inspector = append(rep.Inspector, inspectorResult{
			Name:           fx.name,
			N:              n,
			Iterations:     parSched.NumIterations(),
			ReferenceNs:    reference.Nanoseconds(),
			SerialNs:       serial.Nanoseconds(),
			ParallelNs:     parallel.Nanoseconds(),
			SerialStages:   toStageNs(serialTm),
			ParallelStages: toStageNs(parTm),
			ByteIdentical:  identical,
			SpeedupSerial:  ratio(float64(reference.Nanoseconds()), float64(serial.Nanoseconds())),
			Speedup:        ratio(float64(reference.Nanoseconds()), float64(parallel.Nanoseconds())),
			FusedNs:        fused.Nanoseconds(),
			UnfusedNs:      unfused.Nanoseconds(),
			FusedGainNs:    gain.Nanoseconds(),
			BreakEvenRuns:  breakEven,
		})
		fmt.Printf("%-22s reference %10v  optimized %10v (serial %10v)  speedup %.2fx  break-even %.1f runs\n",
			fx.name, reference, parallel, serial,
			ratio(float64(reference.Nanoseconds()), float64(parallel.Nanoseconds())), breakEven)
	}
}

// runServe measures the fusion-as-a-service path through the public facade:
// the schedule cache's first-solve economics, the warm steady-state solve
// against the inspect-per-request baseline, concurrent serving throughput
// and latency through the bounded server, and the cold-start thundering-herd
// guarantee. Two invariants are enforced unconditionally (write and -check
// mode alike): the warm solve must beat inspect-per-request by at least 10x,
// and a cold-start herd must run exactly one inspection.
func runServe(rep *report, threads, n int, minTime time.Duration) {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	m := sf.Laplacian2D(side)
	const name = "trsv-trsv/laplacian"
	opts := func(sc *sf.ScheduleCache) sf.Options {
		return sf.Options{Threads: threads, LBCInitialCut: 3, LBCAgg: 8, Cache: sc}
	}

	// Cold: the first request for this pattern on an empty cache pays the
	// inspection. One-shot by nature, so a single timed sample.
	sc := sf.NewScheduleCache(sf.CacheConfig{})
	t0 := time.Now()
	op, err := sf.NewOperation(sf.TrsvTrsv, m, opts(sc))
	if err != nil {
		log.Fatalf("%s: cold operation: %v", name, err)
	}
	if _, err := op.Run(); err != nil {
		log.Fatalf("%s: cold solve: %v", name, err)
	}
	cold := time.Since(t0)

	// Warm first solve: a fresh operation against the populated cache.
	warmFirst := measure(minTime, func() {
		wop, err := sf.NewOperation(sf.TrsvTrsv, m, opts(sc))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := wop.Run(); err != nil {
			log.Fatal(err)
		}
	})

	// Baseline: a service without schedule reuse inspects on every request.
	inspectPer := measure(minTime, func() {
		bop, err := sf.NewOperation(sf.TrsvTrsv, m, opts(nil))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := bop.Run(); err != nil {
			log.Fatal(err)
		}
	})

	// Steady state: one session solving on the shared artifacts.
	sess, err := op.NewSession()
	if err != nil {
		log.Fatalf("%s: session: %v", name, err)
	}
	warmSolve := measure(minTime, func() {
		if _, err := sess.Run(); err != nil {
			log.Fatal(err)
		}
	})

	// Concurrent serving: clients sessions hammer a bounded server until the
	// deadline; wall clock over completed solves is the throughput.
	const clients = 8
	const maxConcurrent = 2
	sv := sf.NewServer(sf.ServerConfig{MaxConcurrent: maxConcurrent, Width: threads})
	var mu sync.Mutex
	var lats []time.Duration
	deadline := time.Now().Add(minTime)
	var wg sync.WaitGroup
	tServe := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := op.NewSession()
			if err != nil {
				log.Fatalf("%s: client session: %v", name, err)
			}
			var mine []time.Duration
			for time.Now().Before(deadline) {
				t := time.Now()
				if _, err := s.RunOn(sv); err != nil {
					log.Fatalf("%s: served solve: %v", name, err)
				}
				mine = append(mine, time.Since(t))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(tServe)
	queued := sv.Stats().Queued
	sv.Close()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))].Nanoseconds()
	}
	solves := int64(len(lats))

	// Cold-start thundering herd on a fresh cache: every tenant arrives at
	// once, exactly one inspection may run.
	herd := sf.NewScheduleCache(sf.CacheConfig{})
	var hwg sync.WaitGroup
	for i := 0; i < 2*clients; i++ {
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			if _, err := sf.NewOperation(sf.TrsvTrsv, m, opts(herd)); err != nil {
				log.Fatalf("%s: herd operation: %v", name, err)
			}
		}()
	}
	hwg.Wait()
	dup := herd.Stats().Misses - 1
	if dup != 0 {
		log.Fatalf("%s: cold-start herd ran %d duplicate inspections, want 0", name, dup)
	}
	speedup := ratio(float64(inspectPer.Nanoseconds()), float64(warmSolve.Nanoseconds()))
	if speedup < 10 {
		log.Fatalf("%s: warm solve %v is only %.1fx faster than inspect-per-request %v, want >= 10x",
			name, warmSolve, speedup, inspectPer)
	}

	rep.Serve = append(rep.Serve, serveResult{
		Name:                     name,
		N:                        m.Rows(),
		Clients:                  clients,
		MaxConcurrent:            maxConcurrent,
		ColdFirstSolveNs:         cold.Nanoseconds(),
		WarmFirstSolveNs:         warmFirst.Nanoseconds(),
		InspectPerRequestNs:      inspectPer.Nanoseconds(),
		WarmSolveNs:              warmSolve.Nanoseconds(),
		SpeedupWarmVsInspect:     speedup,
		Solves:                   solves,
		SolvesPerSec:             ratio(float64(solves)*1e9, float64(wall.Nanoseconds())),
		P50Ns:                    pct(0.50),
		P99Ns:                    pct(0.99),
		ServerQueued:             queued,
		CacheHitRate:             sc.Stats().HitRate(),
		HerdDuplicateInspections: dup,
	})
	fmt.Printf("%-22s cold %10v  warm-first %10v  warm-solve %10v  inspect/req %10v  %.0fx  %d solves (%.0f/s, p50 %v p99 %v)\n",
		name, cold, warmFirst, warmSolve, inspectPer, speedup,
		solves, ratio(float64(solves)*1e9, float64(wall.Nanoseconds())),
		time.Duration(pct(0.50)), time.Duration(pct(0.99)))
}

// maxOverheadPct is the telemetry overhead budget: a recorder-enabled warm
// solve may be at most this much slower than the recorder-disabled one.
// Enforced unconditionally — write and -check mode alike — so a chatty
// instrument can never land silently.
const maxOverheadPct = 5.0

// runProfile measures the hot-path execution profiler itself: what recording
// costs (three warm-solve ladders — untouched baseline, recorder attached but
// disabled, recorder enabled) and what it measures (the per-s-partition
// barrier-wait and per-worker load-imbalance breakdown the recorder exists to
// produce).
func runProfile(rep *report, threads, n int, minTime time.Duration) {
	for _, fx := range fixtures {
		ks, loops := fx.mk(n)
		sched, err := core.ICO(loops, icoParams(threads, fx.reuse, 0))
		if err != nil {
			log.Fatalf("%s: %v", fx.name, err)
		}
		runner, err := exec.CompileFused(ks, sched)
		if err != nil {
			log.Fatalf("%s: compile: %v", fx.name, err)
		}
		baseline := measure(minTime, func() { runner.Run(threads) })

		// Ring big enough that a full measuring window never overwrites: spans
		// accrue per w-partition per run.
		perRun := sched.NumSPartitions() * sched.MaxWidth()
		rec := exec.NewRecorder(64*perRun, sched.MaxWidth())
		runner.SetRecorder(rec)
		disabled := measure(minTime, func() { runner.Run(threads) })
		rec.Enable()
		enabled := measure(minTime, func() { runner.Run(threads) })

		// The overhead gate, with one re-measure to ride out scheduler noise:
		// min-of-window timings are stable, but a single unlucky window must
		// not fail the build.
		overhead := overheadPct(enabled, disabled)
		if overhead > maxOverheadPct {
			rec.Disable()
			disabled = measure(minTime, func() { runner.Run(threads) })
			rec.Enable()
			enabled = measure(minTime, func() { runner.Run(threads) })
			overhead = overheadPct(enabled, disabled)
		}
		if overhead > maxOverheadPct {
			log.Fatalf("%s: recorder-enabled solve %v is %.1f%% slower than disabled %v, budget %.0f%%",
				fx.name, enabled, overhead, disabled, maxOverheadPct)
		}

		// A clean profile over a fixed run count for the breakdown numbers
		// (the measuring loop above recorded an unpredictable run count).
		rec.Reset()
		const profileRuns = 32
		for i := 0; i < profileRuns; i++ {
			if _, err := runner.Run(threads); err != nil {
				log.Fatalf("%s: profiled run: %v", fx.name, err)
			}
		}
		b := rec.Breakdown()
		parts := make([]partitionProfile, len(b.Partitions))
		for i, p := range b.Partitions {
			parts[i] = partitionProfile{
				S: p.S, Width: p.Width, Iters: p.Iters, Rounds: p.Rounds,
				BusyNs: p.BusyNs, CriticalNs: p.MaxNs, WaitNs: p.WaitNs,
				Imbalance: p.Imbalance(),
			}
		}
		runner.SetRecorder(nil)

		rep.Profile = append(rep.Profile, profileResult{
			Name:             fx.name,
			N:                n,
			Iterations:       sched.NumIterations(),
			SPartitions:      sched.NumSPartitions(),
			MaxWidth:         sched.MaxWidth(),
			BaselineNs:       baseline.Nanoseconds(),
			DisabledNs:       disabled.Nanoseconds(),
			EnabledNs:        enabled.Nanoseconds(),
			OverheadPct:      overhead,
			RecordedRuns:     b.Runs,
			RecordedBarriers: b.Barriers,
			WorkerBusyNs:     b.WorkerBusyNs,
			WorkerWaitNs:     b.WorkerWaitNs,
			Imbalance:        b.Imbalance(),
			DroppedSpans:     b.DroppedSpans,
			Partitions:       parts,
		})
		fmt.Printf("%-22s baseline %10v  disabled %10v  enabled %10v  overhead %+.1f%%  imbalance %.1f%% over %d runs\n",
			fx.name, baseline, disabled, enabled, overhead, 100*b.Imbalance(), b.Runs)
	}
}

// runScale measures the executor scaling curve: for every worker count from
// 1 to NumCPU, the static packed executor (pool as wide as the schedule, one
// slot per w-partition) against the work-stealing packed executor (pool of
// exactly that many slots, LPT-seeded queues, streams built first-touch by
// the owning slots). The schedule itself targets the -threads width, so on
// wide machines narrow worker counts exercise the multiplexing path. The
// fixture is gather-only, so the two executors must agree bit for bit at
// every width — enforced unconditionally; a mismatch aborts the run.
func runScale(rep *report, threads, n int, minTime time.Duration) {
	ks, loops, snap := gsPairSnap(n)
	const name = "gs-pair/separated"
	sched, err := core.ICO(loops, icoParams(threads, 0.5, 0))
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	static, _, err := exec.CompileFusedPacked(ks, sched)
	if err != nil {
		log.Fatalf("%s: static compile: %v", name, err)
	}

	var oneWorker time.Duration
	for workers := 1; workers <= runtime.NumCPU(); workers++ {
		staticNs := measure(minTime, func() { static.Run(workers) })
		if _, err := static.Run(workers); err != nil {
			log.Fatalf("%s w=%d: static run: %v", name, workers, err)
		}
		want := snap()

		steal, _, err := exec.CompileFusedPackedFirstTouch(ks, sched, exec.Config{}, workers)
		if err != nil {
			log.Fatalf("%s w=%d: steal compile: %v", name, workers, err)
		}
		stealNs := measure(minTime, func() { steal.Run(workers) })
		if _, err := steal.Run(workers); err != nil {
			log.Fatalf("%s w=%d: steal run: %v", name, workers, err)
		}
		got := snap()
		identical := len(got) == len(want)
		for i := 0; identical && i < len(want); i++ {
			identical = math.Float64bits(got[i]) == math.Float64bits(want[i])
		}
		if !identical {
			log.Fatalf("%s w=%d: stealing diverged from the static executor (gather fixture must be bit-identical)", name, workers)
		}

		// Steal telemetry over a fixed run count, as deltas of the runner's
		// cumulative counters.
		const statRuns = 32
		s0, r0 := steal.StealStats()
		for i := 0; i < statRuns; i++ {
			if _, err := steal.Run(workers); err != nil {
				log.Fatalf("%s w=%d: instrumented run: %v", name, workers, err)
			}
		}
		s1, r1 := steal.StealStats()

		if workers == 1 {
			oneWorker = stealNs
		}
		speedup := ratio(float64(oneWorker.Nanoseconds()), float64(stealNs.Nanoseconds()))
		rep.Scale = append(rep.Scale, scaleResult{
			Name:         name,
			Workers:      workers,
			StaticNs:     staticNs.Nanoseconds(),
			StealNs:      stealNs.Nanoseconds(),
			Speedup:      speedup,
			Efficiency:   ratio(speedup, float64(workers)),
			BarrierNs:    barrierCost(minTime/4, workers).Nanoseconds(),
			StealsPerRun: ratio(float64(s1-s0), statRuns),
			ReseedEvents: r1 - r0,
			BitIdentical: identical,
		})
		last := rep.Scale[len(rep.Scale)-1]
		fmt.Printf("%-22s w=%-3d static %10v  steal %10v  speedup %5.2fx  eff %4.2f  barrier %6dns  steals/run %.1f\n",
			name, workers, staticNs, stealNs, last.Speedup, last.Efficiency, last.BarrierNs, last.StealsPerRun)
	}
}

// runChain measures what chain composition buys: the same k-kernel chain at
// the three composition policies, and the end-to-end fused PCG solver against
// the pairwise-fused host-orchestrated one. Two invariants hold
// unconditionally (write and -check mode alike): every fused execution is
// bit-identical to its reference, and the composed chain synchronizes no more
// than the pairwise split.
func runChain(rep *report, threads, n int, minTime time.Duration) {
	runChainSweeps(rep, threads, n, minTime)
	runChainPCG(rep, threads, n, minTime)
}

// chainSweepSpec builds the Gauss-Seidel-style sweep chain x1 = L\b,
// x2 = L\x1, ..., xk = L\x(k-1) on the Laplacian factor — k coupled
// triangular solves, each adjacency a diagonal F — plus a snapshot of every
// sweep's output for the bit-identity gate.
func chainSweepSpec(n, k int) (combos.ChainSpec, func() []float64, int) {
	a := fixtureMatrix(n)
	n = a.Rows
	l := a.Lower()
	in := sparse.RandomVec(n, 5)
	spec := combos.ChainSpec{Name: "gs-sweeps"}
	var outs [][]float64
	for j := 0; j < k; j++ {
		out := make([]float64, n)
		var f *sparse.CSR
		if j > 0 {
			f = core.FDiagonal(n)
		}
		spec.Links = append(spec.Links, combos.ChainLink{K: kernels.NewSpTRSVCSR(l, in, out), F: f})
		outs = append(outs, out)
		in = out
	}
	snap := func() []float64 {
		var s []float64
		for _, o := range outs {
			s = append(s, o...)
		}
		return s
	}
	return spec, snap, n
}

func runChainSweeps(rep *report, threads, n int, minTime time.Duration) {
	const k = 4
	spec, snap, rows := chainSweepSpec(n, k)
	name := fmt.Sprintf("gs-sweeps/k%d", k)
	lp := lbc.Params{InitialCut: 3, Agg: 8}

	// One build per composition policy over the same kernels and buffers
	// (triangular solves overwrite their outputs completely, so repeated
	// timed runs need no reset).
	build := func(maxGroup int) (*combos.Impl, []*core.Schedule, *combos.Chain, time.Duration) {
		s := spec
		s.MaxGroup = maxGroup
		c, err := combos.BuildChain(s)
		if err != nil {
			log.Fatalf("%s: build (max group %d): %v", name, maxGroup, err)
		}
		im, scheds := c.SparseFusion(threads, lp)
		t0 := time.Now()
		if err := im.Inspect(); err != nil {
			log.Fatalf("%s: inspect (max group %d): %v", name, maxGroup, err)
		}
		return im, scheds, c, time.Since(t0)
	}
	fused, fusedScheds, fc, inspect := build(0)
	pair, pairScheds, pc, _ := build(2)
	unf, unfScheds, uc, _ := build(1)
	if !fc.Fused() {
		log.Fatalf("%s: unbounded spec did not compose into one group", name)
	}

	// Bit-identity gate: the composed execution against the sequential
	// kernel-by-kernel reference.
	if err := fc.RunSequential(); err != nil {
		log.Fatalf("%s: sequential reference: %v", name, err)
	}
	want := snap()
	if _, err := fused.Execute(); err != nil {
		log.Fatalf("%s: fused execute: %v", name, err)
	}
	got := snap()
	identical := len(got) == len(want)
	for i := 0; identical && i < len(want); i++ {
		identical = math.Float64bits(got[i]) == math.Float64bits(want[i])
	}
	if !identical {
		log.Fatalf("%s: composed chain diverged from the sequential reference (gather chain must be bit-identical)", name)
	}

	run := func(im *combos.Impl) func() {
		return func() {
			if _, err := im.Execute(); err != nil {
				log.Fatal(err)
			}
		}
	}
	fusedNs := measure(minTime, run(fused))
	pairNs := measure(minTime, run(pair))
	unfNs := measure(minTime, run(unf))

	fb := fc.Barriers(fusedScheds)
	pb := pc.Barriers(pairScheds)
	ub := uc.Barriers(unfScheds)
	if fb > pb {
		log.Fatalf("%s: composed chain pays %d barriers per pass, pairwise %d — composition must not add synchronization", name, fb, pb)
	}
	gain := unfNs - fusedNs
	breakEven := float64(-1)
	if gain > 0 {
		breakEven = float64(inspect.Nanoseconds()) / float64(gain.Nanoseconds())
	}
	rep.Chain = append(rep.Chain, chainResult{
		Name:              name,
		N:                 rows,
		K:                 k,
		FusedBarriers:     fb,
		PairwiseBarriers:  pb,
		UnfusedBarriers:   ub,
		BarrierReduction:  ratio(float64(pb), float64(fb)),
		FusedNs:           fusedNs.Nanoseconds(),
		PairwiseNs:        pairNs.Nanoseconds(),
		UnfusedNs:         unfNs.Nanoseconds(),
		SpeedupVsPairwise: ratio(float64(pairNs.Nanoseconds()), float64(fusedNs.Nanoseconds())),
		SpeedupVsUnfused:  ratio(float64(unfNs.Nanoseconds()), float64(fusedNs.Nanoseconds())),
		InspectNs:         inspect.Nanoseconds(),
		BreakEvenRuns:     breakEven,
		BitIdentical:      identical,
	})
	fmt.Printf("%-22s fused %10v (%d barriers)  pairwise %10v (%d)  unfused %10v (%d)  speedup %.2fx/%.2fx  break-even %.1f runs\n",
		name, fusedNs, fb, pairNs, pb, unfNs, ub,
		ratio(float64(pairNs), float64(fusedNs)), ratio(float64(unfNs), float64(fusedNs)), breakEven)
}

// runChainPCG is the solver-level subject: a whole preconditioned-CG
// iteration — SpMV, two dot products, two AXPYs, the forward and backward
// IC0 solves, and the direction update — as one composed 8-loop chain,
// against the host-orchestrated solver that fuses only the preconditioner
// pair. Both amortize inspection through a shared schedule cache, so the
// comparison is steady-state solve against steady-state solve.
func runChainPCG(rep *report, threads, n int, minTime time.Duration) {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	m := sf.Laplacian2D(side)
	const name = "pcg/laplacian"
	b := make([]float64, m.Rows())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	sc := sf.NewScheduleCache(sf.CacheConfig{})
	base := sf.Options{Threads: threads, LBCInitialCut: 3, LBCAgg: 8, Cache: sc}

	t0 := time.Now()
	f, err := sf.NewFusedCG(m, sf.FusedCGOptions{Options: base, Precondition: true})
	if err != nil {
		log.Fatalf("%s: fused solver: %v", name, err)
	}
	inspect := time.Since(t0)
	x, it, solveRep, err := f.Solve(b)
	if err != nil {
		log.Fatalf("%s: fused solve: %v", name, err)
	}
	if it <= 0 {
		log.Fatalf("%s: fused solver did not converge", name)
	}

	// Bit-identity gate: a one-worker fused solve must reproduce the wide
	// one exactly — iteration count and every solution bit.
	f1, err := sf.NewFusedCG(m, sf.FusedCGOptions{
		Options: sf.Options{Threads: 1, LBCInitialCut: 3, LBCAgg: 8}, Precondition: true,
	})
	if err != nil {
		log.Fatalf("%s: one-worker solver: %v", name, err)
	}
	x1, it1, _, err := f1.Solve(b)
	if err != nil {
		log.Fatalf("%s: one-worker solve: %v", name, err)
	}
	identical := it == it1 && len(x) == len(x1)
	for i := 0; identical && i < len(x); i++ {
		identical = math.Float64bits(x[i]) == math.Float64bits(x1[i])
	}
	if !identical {
		log.Fatalf("%s: fused solve diverged across worker counts (chain must be bit-identical)", name)
	}

	fusedNs := measure(minTime, func() {
		if _, _, _, err := f.Solve(b); err != nil {
			log.Fatal(err)
		}
	})
	// The pairwise baseline warms the shared cache on its first call, so the
	// measured window is all steady-state solves.
	pairwiseNs := measure(minTime, func() {
		if _, _, err := m.SolveCG(b, sf.CGOptions{Options: base, Precondition: true}); err != nil {
			log.Fatal(err)
		}
	})

	gain := pairwiseNs - fusedNs
	breakEven := float64(-1)
	if gain > 0 {
		breakEven = float64(inspect.Nanoseconds()) / float64(gain.Nanoseconds())
	}
	rep.Chain = append(rep.Chain, chainResult{
		Name:              name,
		N:                 m.Rows(),
		K:                 f.ChainLength(),
		FusedNs:           fusedNs.Nanoseconds(),
		PairwiseNs:        pairwiseNs.Nanoseconds(),
		SpeedupVsPairwise: ratio(float64(pairwiseNs.Nanoseconds()), float64(fusedNs.Nanoseconds())),
		InspectNs:         inspect.Nanoseconds(),
		BreakEvenRuns:     breakEven,
		Iterations:        it,
		BarriersPerIter:   solveRep.Barriers / it,
		BitIdentical:      identical,
	})
	fmt.Printf("%-22s fused %10v  pairwise %10v  speedup %.2fx  %d iterations, %d barriers/iteration (chain k=%d)  break-even %.1f solves\n",
		name, fusedNs, pairwiseNs,
		ratio(float64(pairwiseNs), float64(fusedNs)), it, solveRep.Barriers/it, f.ChainLength(), breakEven)
}

// overheadPct is how much slower enabled is than disabled, in percent
// (negative when enabled happened to measure faster).
func overheadPct(enabled, disabled time.Duration) float64 {
	if disabled <= 0 {
		return 0
	}
	return 100 * (float64(enabled-disabled) / float64(disabled))
}

// executorEconomics measures the per-run cost of the fused compiled executor
// and of the unfused per-kernel LBC chain — the gap the inspector's one-time
// cost is amortized against.
func executorEconomics(ks []kernels.Kernel, loops *core.Loops, sched *core.Schedule, threads int, minTime time.Duration) (fused, unfused time.Duration) {
	runner, err := exec.CompileFused(ks, sched)
	if err != nil {
		log.Fatalf("compile fused: %v", err)
	}
	fused = measure(minTime, func() { runner.Run(threads) })

	rs := make([]*exec.Runner, len(ks))
	for i, k := range ks {
		p, err := lbc.Schedule(k.DAG(), threads, lbc.Params{InitialCut: 3, Agg: 8})
		if err != nil {
			log.Fatalf("unfused lbc: %v", err)
		}
		if rs[i], err = exec.CompilePartitioned(k, p); err != nil {
			log.Fatalf("unfused compile: %v", err)
		}
	}
	unfused = measure(minTime, func() { exec.RunChainCompiled(ks, rs, threads) })
	return fused, unfused
}

// checkRegression compares fresh headline metrics against the committed
// report: executor compiled ns/run and inspector optimized ns must not be
// more than 25% worse.
// runChaos drives the deterministic fault-injection matrix: every scenario
// derives its faults from a fixed seed (a failing run replays exactly), runs
// under a harness watchdog, and must terminate in the expected typed error —
// or, for the storm subjects, in nothing but typed errors and clean results.
// After every fault a clean run over the *same* kernel instances must
// reproduce the pre-fault reference bit for bit: faults may abandon a run,
// they may never corrupt the artifacts the next run executes on. The
// armed-context overhead subject enforces the ≤5% cancellation-polling
// budget unconditionally, same as -mode profile does for the recorder.
func runChaos(rep *report, threads, n int, minTime time.Duration) {
	const seed = 0x5eedc4a05 // any fixed value; recorded per scenario
	const harness = 10 * time.Second

	scenario := func(name string, fn func() chaosResult) {
		var res chaosResult
		if err := chaos.Under(harness, func() error { res = fn(); return nil }); err != nil {
			log.Fatalf("chaos %s: %v", name, err)
		}
		res.Scenario = name
		rep.Chaos = append(rep.Chaos, res)
		fmt.Printf("%-24s %s\n", name, res.Outcome)
	}

	// subject bundles the gs-pair fixture one scenario injects faults into:
	// the clean compiled runner, the shared kernel instances, the schedule
	// (for compiling faulty variants over the same partitioning), the output
	// snapshot closure, and the clean reference output the post-fault clean
	// run must reproduce.
	type subject struct {
		runner *exec.Runner
		ks     []kernels.Kernel
		sched  *core.Schedule
		snap   func() []float64
		ref    []float64
	}
	mkSubject := func(name string) subject {
		ks, loops, snap := gsPairSnap(n)
		sched, err := core.ICO(loops, icoParams(threads, 0.5, 0))
		if err != nil {
			log.Fatalf("chaos %s: inspect: %v", name, err)
		}
		runner, err := exec.CompileFused(ks, sched)
		if err != nil {
			log.Fatalf("chaos %s: compile: %v", name, err)
		}
		if _, err := runner.Run(threads); err != nil {
			log.Fatalf("chaos %s: clean reference run: %v", name, err)
		}
		return subject{runner: runner, ks: ks, sched: sched, snap: snap, ref: snap()}
	}

	// rerunClean runs the subject's clean runner again — over the same
	// kernel instances a fault just abandoned mid-run — and insists on the
	// reference bits: a fault may abandon a run, it may never corrupt the
	// artifacts the next run executes on.
	rerunClean := func(name string, sub subject) {
		if _, err := sub.runner.Run(threads); err != nil {
			log.Fatalf("chaos %s: post-fault clean run: %v", name, err)
		}
		if !bitsEqual(sub.snap(), sub.ref) {
			log.Fatalf("chaos %s: post-fault clean run diverged from the reference", name)
		}
	}

	// Seeded cancel storm: repeated runs each under a context cancelled at a
	// seeded instant inside (twice) the run's own duration. Every outcome
	// must be a clean result or a typed *exec.CancelledError; afterwards the
	// same runner must still produce the reference bits.
	scenario("cancel-storm", func() chaosResult {
		sub := mkSubject("cancel-storm")
		runner := sub.runner
		t0 := time.Now()
		if _, err := runner.Run(threads); err != nil {
			log.Fatal(err)
		}
		window := 2 * time.Since(t0)
		if window < 100*time.Microsecond {
			window = 100 * time.Microsecond
		}
		rng := chaos.NewRng(seed)
		const runs = 32
		var cancelled, completed int
		for i := 0; i < runs; i++ {
			ctx, cancel := rng.CancelAfter(context.Background(), window)
			_, err := runner.RunContext(ctx, threads)
			cancel()
			if err == nil {
				completed++
				continue
			}
			var c *exec.CancelledError
			if !errors.As(err, &c) {
				log.Fatalf("chaos cancel-storm: run %d returned %T (%v), want *exec.CancelledError or success", i, err, err)
			}
			cancelled++
		}
		if cancelled == 0 {
			log.Fatalf("chaos cancel-storm: none of %d seeded windows cancelled a run; widen the storm", runs)
		}
		if _, err := runner.RunContext(context.Background(), threads); err != nil {
			log.Fatalf("chaos cancel-storm: clean run after the storm: %v", err)
		}
		if !bitsEqual(sub.snap(), sub.ref) {
			log.Fatal("chaos cancel-storm: clean run after the storm diverged from the reference")
		}
		return chaosResult{
			Seed: seed, Runs: runs, Cancelled: cancelled, Completed: completed, BitIdentical: true,
			Outcome: fmt.Sprintf("%d cancelled (typed), %d completed, then bit-identical", cancelled, completed),
		}
	})

	// Injected worker panic: one iteration panics with a plain value. The
	// pool must recover it into an *exec.ExecError (not a watchdog trip, not
	// a hang) and the kernels must survive for the next run.
	scenario("worker-panic", func() chaosResult {
		sub := mkSubject("worker-panic")
		armed := sub.ks[1].Iterations() / 2
		faulty, err := exec.CompileFused(
			[]kernels.Kernel{sub.ks[0], chaos.NewPanic(sub.ks[1], armed)}, sub.sched)
		if err != nil {
			log.Fatalf("chaos worker-panic: compile: %v", err)
		}
		_, err = faulty.Run(threads)
		var xe *exec.ExecError
		if !errors.As(err, &xe) || xe.Watchdog {
			log.Fatalf("chaos worker-panic: got %T (%v), want *exec.ExecError", err, err)
		}
		if !strings.Contains(fmt.Sprint(xe.Recovered), "chaos: injected panic") {
			log.Fatalf("chaos worker-panic: recovered %q lost the injected panic value", fmt.Sprint(xe.Recovered))
		}
		rerunClean("worker-panic", sub)
		return chaosResult{Seed: seed, Runs: 1, BitIdentical: true,
			Outcome: fmt.Sprintf("*exec.ExecError (worker %d, s-partition %d), then bit-identical", xe.Worker, xe.SPartition)}
	})

	// Injected numerical breakdown: one iteration raises a typed
	// *kernels.BreakdownError, exactly as a zero pivot does. errors.As must
	// reach it through the executor's wrapping.
	scenario("breakdown", func() chaosResult {
		sub := mkSubject("breakdown")
		armed := sub.ks[1].Iterations() / 3
		faulty, err := exec.CompileFused(
			[]kernels.Kernel{sub.ks[0], chaos.NewBreakdown(sub.ks[1], armed)}, sub.sched)
		if err != nil {
			log.Fatalf("chaos breakdown: compile: %v", err)
		}
		_, err = faulty.Run(threads)
		var brk *kernels.BreakdownError
		if !errors.As(err, &brk) || brk.Row != armed {
			log.Fatalf("chaos breakdown: got %T (%v), want *kernels.BreakdownError at row %d", err, err, armed)
		}
		rerunClean("breakdown", sub)
		return chaosResult{Seed: seed, Runs: 1, BitIdentical: true,
			Outcome: fmt.Sprintf("*kernels.BreakdownError (row %d) through errors.As, then bit-identical", brk.Row)}
	})

	// Slow worker under the barrier watchdog: one iteration stalls far past
	// the pool's watchdog bound. The stall must land on a non-calling worker
	// slot — the caller cannot time out on its own arrival, a stall there
	// merely makes the run slow — so the armed iteration is read off the
	// schedule: on the static path, w-partition w of an s-partition runs on
	// pool slot w and slot 0 is the caller, so any iteration in w-partition
	// 1 of a multi-partition round is guaranteed off-caller.
	scenario("slow-worker-watchdog", func() chaosResult {
		wdThreads := threads
		if wdThreads < 2 {
			wdThreads = 2
		}
		sub := mkSubject("slow-worker-watchdog")
		armedLoop, armedIter := -1, -1
		var armedS int
		for si, sp := range sub.sched.S {
			if len(sp) >= 2 && len(sp[1]) > 0 {
				armedLoop, armedIter, armedS = sp[1][0].Loop, sp[1][0].Idx, si
				break
			}
		}
		if armedLoop < 0 {
			log.Fatal("chaos slow-worker-watchdog: schedule has no multi-partition s-partition to stall")
		}
		faultyKs := append([]kernels.Kernel(nil), sub.ks...)
		faultyKs[armedLoop] = chaos.NewDelay(sub.ks[armedLoop], armedIter, 250*time.Millisecond)
		faulty, err := exec.CompileFused(faultyKs, sub.sched)
		if err != nil {
			log.Fatalf("chaos slow-worker-watchdog: compile: %v", err)
		}
		faulty.Configure(exec.Config{Watchdog: 40 * time.Millisecond})
		_, err = faulty.Run(wdThreads)
		var xe *exec.ExecError
		if !errors.As(err, &xe) || !xe.Watchdog {
			log.Fatalf("chaos slow-worker-watchdog: stalled loop %d iteration %d (s-partition %d slot 1), got %T (%v), want watchdog *exec.ExecError",
				armedLoop, armedIter, armedS, err, err)
		}
		rerunClean("slow-worker-watchdog", sub)
		return chaosResult{Seed: seed, Runs: 1, BitIdentical: true,
			Outcome: fmt.Sprintf("watchdog *exec.ExecError (s-partition %d), then bit-identical", xe.SPartition)}
	})

	// Disk-tier defects: a seeded byte flip inside a schedule container, then
	// a torn tail. Each must be quarantined (renamed .bad) on the next load,
	// rebuilt from scratch, and the rebuilt schedule must solve to the
	// cache-less reference bits.
	scenario("disk-cache-defects", func() chaosResult {
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		m := sf.Laplacian2D(side)
		opts := func(sc *sf.ScheduleCache) sf.Options {
			return sf.Options{Threads: threads, LBCInitialCut: 3, LBCAgg: 8, Cache: sc}
		}
		input := sparse.RandomVec(m.Rows(), 7)
		solve := func(sc *sf.ScheduleCache) []float64 {
			op, err := sf.NewOperation(sf.TrsvTrsv, m, opts(sc))
			if err != nil {
				log.Fatalf("chaos disk-cache-defects: operation: %v", err)
			}
			if err := op.SetInput(input); err != nil {
				log.Fatal(err)
			}
			if _, err := op.Run(); err != nil {
				log.Fatalf("chaos disk-cache-defects: solve: %v", err)
			}
			return op.Output()
		}
		ref := solve(nil)

		dir, err := os.MkdirTemp("", "spbench-chaos-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		solve(sf.NewScheduleCache(sf.CacheConfig{Dir: dir})) // seed the tier

		tierFile := func() string {
			files, err := filepath.Glob(filepath.Join(dir, "*.sched"))
			if err != nil || len(files) != 1 {
				log.Fatalf("chaos disk-cache-defects: want exactly one tier file, got %v (%v)", files, err)
			}
			return files[0]
		}
		damage := []struct {
			name string
			do   func(path string)
		}{
			{"corrupt", func(p string) {
				if err := chaos.CorruptFile(p, seed); err != nil {
					log.Fatal(err)
				}
			}},
			{"truncate", func(p string) {
				if err := chaos.TruncateFile(p, 40); err != nil { // tears the fingerprint
					log.Fatal(err)
				}
			}},
		}
		var quarantines int64
		for _, d := range damage {
			p := tierFile()
			d.do(p)
			sc := sf.NewScheduleCache(sf.CacheConfig{Dir: dir}) // a later process warm-starting
			got := solve(sc)
			st := sc.Stats()
			if st.DiskQuarantines != 1 {
				log.Fatalf("chaos disk-cache-defects/%s: %d quarantines, want 1", d.name, st.DiskQuarantines)
			}
			if _, err := os.Stat(p + ".bad"); err != nil {
				log.Fatalf("chaos disk-cache-defects/%s: no .bad corpse after quarantine: %v", d.name, err)
			}
			if !bitsEqual(got, ref) {
				log.Fatalf("chaos disk-cache-defects/%s: rebuilt schedule diverged from the cache-less reference", d.name)
			}
			quarantines += st.DiskQuarantines
		}
		return chaosResult{Seed: seed, Runs: len(damage), Quarantines: quarantines, BitIdentical: true,
			Outcome: fmt.Sprintf("%d defects quarantined to .bad, rebuilt bit-identical", quarantines)}
	})

	// Admission-control storm: a 1-pool, 1-slot-queue server under 16
	// concurrent clients with sub-millisecond deadlines, plus a batch of
	// already-expired requests. Every failure must be typed —
	// ErrServerOverloaded at the queue bound, ErrDeadlineExceeded while
	// queued, *CancelledError once in flight; nothing may hang.
	scenario("overload-deadline", func() chaosResult {
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		m := sf.Laplacian2D(side)
		op, err := sf.NewOperation(sf.TrsvTrsv, m, sf.Options{Threads: threads, LBCInitialCut: 3, LBCAgg: 8})
		if err != nil {
			log.Fatalf("chaos overload-deadline: operation: %v", err)
		}
		sv := sf.NewServer(sf.ServerConfig{MaxConcurrent: 1, Width: threads, MaxQueue: 1})
		defer sv.Close()

		var completed, overloaded, deadlined, cancelled atomic.Int64
		tally := func(err error) {
			var c *sf.CancelledError
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, sf.ErrServerOverloaded):
				overloaded.Add(1)
			case errors.Is(err, sf.ErrDeadlineExceeded):
				deadlined.Add(1)
			case errors.As(err, &c):
				// Admitted before the deadline, cancelled in flight — the
				// third legitimate typed outcome.
				cancelled.Add(1)
			default:
				log.Fatalf("chaos overload-deadline: untyped admission outcome %T (%v)", err, err)
			}
		}

		// Already-expired requests are rejected deterministically, before
		// any queueing.
		expired, cancelExpired := context.WithTimeout(context.Background(), -time.Second)
		defer cancelExpired()
		for i := 0; i < 4; i++ {
			s, err := op.NewSession()
			if err != nil {
				log.Fatal(err)
			}
			if _, err := s.RunOnContext(expired, sv); err == nil {
				log.Fatal("chaos overload-deadline: expired request was admitted")
			} else {
				tally(err)
			}
		}

		const clients = 16
		const perClient = 24
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := op.NewSession()
				if err != nil {
					log.Fatalf("chaos overload-deadline: session: %v", err)
				}
				for i := 0; i < perClient; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
					_, err := s.RunOnContext(ctx, sv)
					cancel()
					tally(err)
				}
			}()
		}
		wg.Wait()
		st := sv.Stats()
		if deadlined.Load() == 0 {
			log.Fatal("chaos overload-deadline: no request was rejected for its deadline")
		}
		return chaosResult{
			Runs:             4 + clients*perClient,
			Completed:        int(completed.Load()),
			Cancelled:        int(cancelled.Load()),
			Overloaded:       int(overloaded.Load()),
			DeadlineExceeded: int(deadlined.Load()),
			BitIdentical:     true, // admission-only: no numeric output to compare
			Outcome: fmt.Sprintf("%d completed, %d cancelled in flight, %d overloaded, %d deadline-exceeded (server: shed=%d deadline=%d)",
				completed.Load(), cancelled.Load(), overloaded.Load(), deadlined.Load(), st.Shed, st.DeadlineExceeded),
		}
	})

	// Armed-context overhead: what does merely *being cancellable* cost a
	// run? RunContext under a context that never fires pays the watcher
	// goroutine and the per-round fault poll it shares with panic recovery.
	// The budget is the same ≤5% the profiler's recorder lives under.
	scenario("cancel-poll-overhead", func() chaosResult {
		runner := mkSubject("cancel-poll-overhead").runner
		plain := measure(minTime, func() {
			if _, err := runner.Run(threads); err != nil {
				log.Fatal(err)
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		armed := measure(minTime, func() {
			if _, err := runner.RunContext(ctx, threads); err != nil {
				log.Fatal(err)
			}
		})
		overhead := 100 * (float64(armed.Nanoseconds()) - float64(plain.Nanoseconds())) / float64(plain.Nanoseconds())
		if overhead > maxOverheadPct {
			log.Fatalf("chaos cancel-poll-overhead: armed context costs %.1f%% (plain %v, armed %v), budget is %.0f%%",
				overhead, plain, armed, maxOverheadPct)
		}
		return chaosResult{Runs: 2, BitIdentical: true,
			PlainNs: plain.Nanoseconds(), ArmedNs: armed.Nanoseconds(), OverheadPct: overhead,
			Outcome: fmt.Sprintf("plain %v, armed %v: %+.1f%% (budget %.0f%%)", plain, armed, overhead, maxOverheadPct)}
	})
}

// bitsEqual compares two vectors bit for bit (NaN-safe, unlike ==).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkRegression(path string, fresh *report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed baseline: %w", err)
	}
	var committed report
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	const slack = 1.25
	var failures []string
	byName := func(rs []executorResult) map[string]executorResult {
		m := make(map[string]executorResult, len(rs))
		for _, r := range rs {
			m[r.Name] = r
		}
		return m
	}
	exeC := byName(committed.Executor)
	for _, f := range fresh.Executor {
		c, ok := exeC[f.Name]
		if !ok {
			continue
		}
		if float64(f.CompiledNs) > float64(c.CompiledNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"executor %s: compiled %dns > committed %dns +25%%", f.Name, f.CompiledNs, c.CompiledNs))
		}
		// Guard the packed path too, once a baseline with packed numbers is
		// committed (older baselines carry zeros there).
		if c.PackedNs > 0 && float64(f.PackedNs) > float64(c.PackedNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"executor %s: packed %dns > committed %dns +25%%", f.Name, f.PackedNs, c.PackedNs))
		}
	}
	insC := make(map[string]inspectorResult, len(committed.Inspector))
	for _, r := range committed.Inspector {
		insC[r.Name] = r
	}
	for _, f := range fresh.Inspector {
		c, ok := insC[f.Name]
		if !ok {
			continue
		}
		if float64(f.ParallelNs) > float64(c.ParallelNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"inspector %s: optimized %dns > committed %dns +25%%", f.Name, f.ParallelNs, c.ParallelNs))
		}
	}
	srvC := make(map[string]serveResult, len(committed.Serve))
	for _, r := range committed.Serve {
		srvC[r.Name] = r
	}
	for _, f := range fresh.Serve {
		c, ok := srvC[f.Name]
		if !ok {
			continue
		}
		if float64(f.WarmSolveNs) > float64(c.WarmSolveNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"serve %s: warm solve %dns > committed %dns +25%%", f.Name, f.WarmSolveNs, c.WarmSolveNs))
		}
		if c.P99Ns > 0 && float64(f.P99Ns) > float64(c.P99Ns)*slack {
			failures = append(failures, fmt.Sprintf(
				"serve %s: p99 latency %dns > committed %dns +25%%", f.Name, f.P99Ns, c.P99Ns))
		}
	}
	profC := make(map[string]profileResult, len(committed.Profile))
	for _, r := range committed.Profile {
		profC[r.Name] = r
	}
	for _, f := range fresh.Profile {
		c, ok := profC[f.Name]
		if !ok {
			continue
		}
		if float64(f.DisabledNs) > float64(c.DisabledNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"profile %s: disabled solve %dns > committed %dns +25%%", f.Name, f.DisabledNs, c.DisabledNs))
		}
		// The ≤5% instrumentation budget was already enforced while measuring
		// (runProfile aborts on breach), so -check only guards the solve time.
	}
	sclC := make(map[int]scaleResult, len(committed.Scale))
	for _, r := range committed.Scale {
		sclC[r.Workers] = r
	}
	for _, f := range fresh.Scale {
		// Self-consistency gates, independent of the committed file: the
		// stealing executor may never be slower than static beyond a 10%
		// noise allowance at any measured width, and must have computed
		// bit-identical output (also enforced while measuring).
		if !f.BitIdentical {
			failures = append(failures, fmt.Sprintf(
				"scale w=%d: stealing output diverged from static", f.Workers))
		}
		if float64(f.StealNs) > float64(f.StaticNs)*1.10 {
			failures = append(failures, fmt.Sprintf(
				"scale w=%d: stealing %dns > static %dns +10%%", f.Workers, f.StealNs, f.StaticNs))
		}
		c, ok := sclC[f.Workers]
		if !ok {
			continue
		}
		if float64(f.StealNs) > float64(c.StealNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"scale w=%d: stealing %dns > committed %dns +25%%", f.Workers, f.StealNs, c.StealNs))
		}
	}
	chnC := make(map[string]chainResult, len(committed.Chain))
	for _, r := range committed.Chain {
		chnC[r.Name] = r
	}
	for _, f := range fresh.Chain {
		// Self-consistency gates, independent of the committed file: fused
		// executions must have reproduced their references bit for bit (also
		// enforced while measuring), a composed chain must synchronize
		// strictly less than its pairwise split, and the fused PCG solver may
		// never lose to the pairwise-fused one beyond a 10% noise allowance.
		if !f.BitIdentical {
			failures = append(failures, fmt.Sprintf(
				"chain %s: fused execution diverged from its reference", f.Name))
		}
		if f.PairwiseBarriers > 0 && f.FusedBarriers >= f.PairwiseBarriers {
			failures = append(failures, fmt.Sprintf(
				"chain %s: composed chain pays %d barriers, pairwise %d — want strictly fewer",
				f.Name, f.FusedBarriers, f.PairwiseBarriers))
		}
		if f.Iterations > 0 && float64(f.FusedNs) > float64(f.PairwiseNs)*1.10 {
			failures = append(failures, fmt.Sprintf(
				"chain %s: fused solve %dns > pairwise %dns +10%%", f.Name, f.FusedNs, f.PairwiseNs))
		}
		c, ok := chnC[f.Name]
		if !ok {
			continue
		}
		if float64(f.FusedNs) > float64(c.FusedNs)*slack {
			failures = append(failures, fmt.Sprintf(
				"chain %s: fused %dns > committed %dns +25%%", f.Name, f.FusedNs, c.FusedNs))
		}
	}
	for _, f := range fresh.Chaos {
		// Self-consistency gates, independent of the committed file (chaos
		// scenarios are pass/fail while measuring, so -check re-asserts the
		// two headline invariants): post-fault clean runs reproduced their
		// references, and an armed cancellation context stays within the
		// ≤5% budget.
		if !f.BitIdentical {
			failures = append(failures, fmt.Sprintf(
				"chaos %s: post-fault clean run diverged from its reference", f.Scenario))
		}
		if f.PlainNs > 0 && f.OverheadPct > maxOverheadPct {
			failures = append(failures, fmt.Sprintf(
				"chaos %s: armed-context overhead %.1f%% > %.0f%% budget", f.Scenario, f.OverheadPct, maxOverheadPct))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		return fmt.Errorf("%d benchmark regression(s) vs %s", len(failures), path)
	}
	return nil
}

// fixtureMatrix builds the shared benchmark operand: a 2D Laplacian
// (5-point stencil) with side = sqrt(n), the paper's standard test problem.
// Its lower-triangular DAG schedules as diagonal wavefronts, so the executor
// visits rows ~side apart back to back — the matrix-order access pattern the
// packed re-layout exists to fix — while every row still has a handful of
// entries, keeping dispatch costs honest.
func fixtureMatrix(n int) *sparse.CSR {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	return sparse.Must(sparse.Laplacian2D(side))
}

// gsPair is the Gauss-Seidel/PCG pair — SpTRSV-CSR feeding SpMV+b CSR, both
// gather kernels — on the Laplacian fixture whose triangular DAG is wide, so
// executor dispatch dominates over barriers.
func gsPair(n int) ([]kernels.Kernel, *core.Loops) {
	ks, loops, _ := gsPairSnap(n)
	return ks, loops
}

// gsPairSnap is gsPair plus a snapshot closure over the output vector, for
// suites that compare executor results bit for bit.
func gsPairSnap(n int) ([]kernels.Kernel, *core.Loops, func() []float64) {
	a := fixtureMatrix(n)
	n = a.Rows
	l := a.Lower()
	x := sparse.RandomVec(n, 2)
	rhs := sparse.RandomVec(n, 3)
	y := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, x, y)
	k2 := kernels.NewSpMVPlusCSR(a, y, rhs, z)
	loops := &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FPattern(a)},
	}
	snap := func() []float64 { return append([]float64(nil), z...) }
	return []kernels.Kernel{k1, k2}, loops, snap
}

// trsvMvCSC is the paper's Table 1 row 3 (SpTRSV-CSR then SpMV-CSC): the
// scatter SpMV runs in atomic mode under parallelism, so this fixture shows
// the compiled path's gain when atomics bound the kernel.
func trsvMvCSC(n int) ([]kernels.Kernel, *core.Loops) {
	a := fixtureMatrix(n)
	n = a.Rows
	l := a.Lower()
	ac := a.ToCSC()
	x := sparse.RandomVec(n, 2)
	y := make([]float64, n)
	z := make([]float64, n)
	k1 := kernels.NewSpTRSVCSR(l, x, y)
	k2 := kernels.NewSpMVCSC(ac, y, z)
	return []kernels.Kernel{k1, k2}, &core.Loops{
		G: []*dag.Graph{k1.DAG(), k2.DAG()},
		F: []*sparse.CSR{core.FTrsvToMVCSC(ac)},
	}
}

// measure reports the minimum run time over repeated calls spanning at
// least minTime (after one warmup run).
func measure(minTime time.Duration, fn func()) time.Duration {
	fn() // warmup
	best := time.Duration(0)
	for spent := time.Duration(0); spent < minTime; {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		spent += d
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// barrierCost measures one empty barrier round-trip on the worker pool by
// timing batches of exec.BenchBarrier rounds.
func barrierCost(minTime time.Duration, workers int) time.Duration {
	const rounds = 1000
	best := time.Duration(0)
	for spent := time.Duration(0); spent < minTime; {
		d := exec.BenchBarrier(workers, rounds)
		spent += d * rounds
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}
