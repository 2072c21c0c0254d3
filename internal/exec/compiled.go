package exec

import (
	"context"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/relayout"
)

// This file is the compiled executor path. A core.Schedule (or baseline
// partitioning) is flattened once into a core.Program, its single-loop run
// segments are planned into dispatch units (plan.go), and the hot loop then
// walks flat int32 slices: one kernels.BatchRunner call per segment instead
// of two interface calls per iteration. Interleaved schedules, whose
// segments shred down to a couple of iterations each, are coalesced into
// fused two-kernel spans dispatched through a kernels.PairRunner. RunSerial
// (exec.go), which needs no schedule, is the reference these are checked
// against.

// Runner executes one compiled schedule. Compile once (at inspection time),
// Run many times: solvers that execute the same schedule per sweep or per
// solver iteration amortize the flattening the way they amortize inspection.
//
// A Runner is the per-state view of a shared Plan: it holds only per-loop
// and per-loop-pair data (kernels, batch and fused pair bodies, and, once a
// layout is attached, packed bodies and the layout), plus its config,
// recorder and steal state. Every dispatch unit lives in the plan.
type Runner struct {
	plan  *Plan
	ks    []kernels.Kernel
	batch []kernels.BatchRunner // per loop; nil runs the kernel per iteration
	pairs []kernels.PairRunner  // per Plan.pairs entry

	// lay, when non-nil, is the attached schedule-order re-layout and
	// switches Run to the packed path; packed and packedPairs are its
	// per-loop and per-loop-pair bodies. Set by AttachLayout (exec/packed.go).
	lay         *relayout.Layout
	packed      []kernels.PackedRunner
	packedPairs []kernels.PackedPairRunner

	// rec, when non-nil, is the attached execution profiler (SetRecorder).
	// Its enable flag is sampled once per run; a disabled recorder costs one
	// atomic load per run, an absent one costs a nil check per run.
	rec *Recorder

	// cfg tunes the parallel execution (Configure); steal is the cached
	// work-stealing context, built lazily for the effective pool width.
	cfg   Config
	steal *stealState
}

// NewRunner plans a compiled program for its kernels and binds the plan:
// the one-off form of NewPlan(ks, prog).Bind(ks) for callers that do not
// share the plan.
func NewRunner(ks []kernels.Kernel, prog *core.Program) *Runner {
	r, err := NewPlan(ks, prog).Bind(ks)
	if err != nil {
		// Unreachable: the plan coalesced only pairs these kernels fuse.
		panic(err)
	}
	return r
}

// Plan returns the shared dispatch plan the runner executes.
func (r *Runner) Plan() *Plan { return r.plan }

// Program exposes the compiled representation, for tests and tooling.
func (r *Runner) Program() *core.Program { return r.plan.prog }

// SetRecorder attaches (or, with nil, detaches) an execution profiler: every
// subsequent Run whose start observes the recorder enabled records one Span
// per w-partition plus per-worker busy/wait into the recorder's preallocated
// buffers. The recorder applies to both the compiled and packed paths — the
// instrumentation rides the per-barrier duration gathering the executor
// already performs for Stats, so enabling adds no extra timing syscalls
// beyond one clock read per s-partition.
func (r *Runner) SetRecorder(rec *Recorder) { r.rec = rec }

// Recorder returns the attached profiler, if any.
func (r *Runner) Recorder() *Recorder { return r.rec }

// Run executes the compiled schedule: Prepare in loop order, one barrier per
// s-partition, atomic scatter mode iff the caller is multi-threaded and the
// schedule is actually wide. A worker-body panic — a kernel breakdown or an
// out-of-range iteration in a corrupt program — abandons the remaining
// s-partitions and returns as an *ExecError; the Runner itself stays usable
// (the fault channel is re-armed, the pool torn down as always).
func (r *Runner) Run(threads int) (Stats, error) {
	return r.RunContext(context.Background(), threads)
}

// RunContext is Run under cooperative cancellation: when ctx is cancelled
// (or its deadline expires) mid-run, the current s-partition completes, every
// worker arrives at the barrier, and the run returns a *CancelledError within
// one s-partition round. Completed s-partitions are bit-identical to an
// uncancelled run's; the Runner stays usable. A context that can never fire
// (context.Background()) costs nothing; an armed one costs one watcher
// goroutine per run and no extra branch in the round loop.
func (r *Runner) RunContext(ctx context.Context, threads int) (Stats, error) {
	poolWidth := r.plan.prog.MaxWidth
	if r.cfg.Steal && threads < poolWidth {
		// Stealing multiplexes the schedule's w-partitions over the slots it
		// has, so the pool is sized to the caller's thread budget, not the
		// schedule's width — the whole point on machines narrower than the
		// widest s-partition.
		poolWidth = threads
	}
	if poolWidth < 1 {
		poolWidth = 1
	}
	pl := newPoolCfg(poolWidth, r.cfg.SpinBudget, r.cfg.Watchdog)
	defer pl.close()
	return r.runOnPool(ctx, pl, threads)
}

// runOnPool is Run's body over a caller-supplied pool, which must be at least
// prog.MaxWidth wide and exclusively owned for the duration of the call.
func (r *Runner) runOnPool(ctx context.Context, pl *pool, threads int) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, newCancelled(ctx)
	}
	watch := pl.watchCancel(ctx)
	defer watch.finish(pl)
	p := r.plan.prog
	parallel := threads > 1 && p.MaxWidth > 1
	setAtomics(r.ks, parallel)
	defer setAtomics(r.ks, false)
	var st Stats
	t0 := time.Now()
	for _, k := range r.ks {
		k.Prepare()
	}
	// sst is the stealing context, nil on the static path. Single-partition
	// schedules stay static: there is nothing to steal.
	var sst *stealState
	if r.cfg.Steal && p.MaxWidth > 1 {
		sst = r.stealFor(pl.workers)
	}
	durWidth := p.MaxWidth
	if sst != nil {
		durWidth = sst.asn.Workers
	}
	if durWidth < 1 {
		durWidth = 1
	}
	durs := make([]time.Duration, durWidth)
	runBody := r.runW
	if r.lay != nil {
		runBody = r.runWPacked
	}
	// Sample the profiler flag once per run: a flip mid-schedule applies to
	// the next run, and the disabled hot loop pays nothing per barrier.
	rec := r.rec
	recording := rec != nil && rec.Enabled()
	if recording {
		rec.beginRun()
	}
	for s := 0; s < p.NumSPartitions(); s++ {
		w0 := int(p.SOff[s])
		width := int(p.SOff[s+1]) - w0
		if width == 0 {
			accumulate(&st, durs[:0], threads)
			continue
		}
		parts := width
		if sst != nil && parts > sst.asn.Workers {
			parts = sst.asn.Workers
		}
		var partStart time.Duration
		if recording {
			partStart = time.Since(t0)
		}
		var roundSteals int64
		if sst != nil {
			sst.beginRound(s, parts)
			pl.run(parts, func(q int) { r.stealRound(sst, q, parts, runBody) }, durs[:parts])
			roundSteals = sst.collectRound(parts)
		} else {
			pl.run(width, func(w int) { runBody(w0 + w) }, durs[:width])
		}
		accumulate(&st, durs[:parts], threads)
		if recording {
			if sst != nil {
				// Stolen spans belong to the slot that executed them: durs[q]
				// is slot q's whole-round busy time, stolen w-partitions
				// included. Iteration attribution per slot is unknown here
				// (the slot↔w-partition map moved mid-round), so iters is nil.
				rec.record(s, partStart, durs[:parts], nil, roundSteals)
			} else {
				rec.record(s, partStart, durs[:width], p.WOff[w0:w0+width+1], 0)
			}
		}
		if f := pl.takeFault(); f != nil {
			// Synthetic faults (cancellation, watchdog) carry worker -1 and
			// have no w-partition to attribute.
			wp := -1
			if f.worker >= 0 {
				wp = w0 + f.worker
				if sst != nil {
					wp = int(sst.curW[f.worker])
				}
			}
			st.Elapsed = time.Since(t0)
			return st, f.runError(s, wp)
		}
	}
	if sst != nil {
		ra := r.cfg.ReseedAfter
		if ra <= 0 {
			ra = defaultReseedAfter
		}
		if sst.finishRun(p, ra) && recording {
			rec.noteReseed()
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// runW executes one w-partition, one dispatch per unit.
func (r *Runner) runW(w int) {
	p := r.plan
	iters := r.plan.prog.Iters
	for _, u := range p.units[p.wUnit[w]:p.wUnit[w+1]] {
		it := iters[u.lo:u.hi]
		switch {
		case u.pair != 0:
			r.pairs[u.pair-1](it)
		case r.batch[u.loop] != nil:
			r.batch[u.loop].RunMany(it)
		default:
			k := r.ks[u.loop]
			for _, v := range it {
				k.Run(int(v & kernels.IterMask))
			}
		}
	}
}

// CompileFused compiles an ICO schedule for the fused chain ks. It fails
// only when the schedule exceeds the packed representation (more than
// kernels.MaxLoops loops, or a trip count beyond the index bits).
func CompileFused(ks []kernels.Kernel, sched *core.Schedule) (*Runner, error) {
	prog, err := core.CompileSchedule(sched, len(ks))
	if err != nil {
		return nil, err
	}
	return NewRunner(ks, prog), nil
}

// CompilePartitioned compiles a baseline partitioning of a single kernel's
// DAG (everything is loop 0).
func CompilePartitioned(k kernels.Kernel, p *partition.Partitioning) (*Runner, error) {
	b, err := core.NewProgramBuilder(1)
	if err != nil {
		return nil, err
	}
	for _, sp := range p.S {
		b.StartS()
		for _, wp := range sp {
			if err := b.StartW(); err != nil {
				return nil, err
			}
			for _, v := range wp {
				if err := b.Add(0, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return NewRunner([]kernels.Kernel{k}, b.Finish()), nil
}

// CompileJoint compiles a partitioning of the joint DAG of two kernels
// (vertices 0..n1-1 are loop-1 iterations, n1.. are loop-2 iterations),
// resolving the v < n1 split once instead of per iteration per run.
func CompileJoint(k1, k2 kernels.Kernel, p *partition.Partitioning) (*Runner, error) {
	n1 := k1.Iterations()
	b, err := core.NewProgramBuilder(2)
	if err != nil {
		return nil, err
	}
	for _, sp := range p.S {
		b.StartS()
		for _, wp := range sp {
			if err := b.StartW(); err != nil {
				return nil, err
			}
			for _, v := range wp {
				loop, idx := 0, v
				if v >= n1 {
					loop, idx = 1, v-n1
				}
				if err := b.Add(loop, idx); err != nil {
					return nil, err
				}
			}
		}
	}
	return NewRunner([]kernels.Kernel{k1, k2}, b.Finish()), nil
}

// BenchBarrier runs rounds empty barrier rounds of the given width on a
// fresh pool and returns the mean cost per barrier; the harness behind the
// committed barrier-throughput numbers (cmd/spbench).
func BenchBarrier(workers, rounds int) time.Duration {
	pl := newPool(workers)
	defer pl.close()
	durs := make([]time.Duration, workers)
	body := func(int) {}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		pl.run(workers, body, durs)
	}
	return time.Since(t0) / time.Duration(rounds)
}

// RunChainCompiled executes kernels one after another, each under a
// pre-compiled Runner; entries with a nil runner run serially. Barriers and
// PotentialGain sum over the kernels; the first kernel error abandons the
// rest of the chain.
func RunChainCompiled(ks []kernels.Kernel, rs []*Runner, threads int) (Stats, error) {
	var st Stats
	t0 := time.Now()
	for i := range ks {
		var s Stats
		var err error
		if rs[i] != nil {
			s, err = rs[i].Run(threads)
		} else {
			s, err = RunSerial(context.Background(), ks[i:i+1])
		}
		st.Barriers += s.Barriers
		st.PotentialGain += s.PotentialGain
		if err != nil {
			st.Elapsed = time.Since(t0)
			return st, err
		}
	}
	st.Elapsed = time.Since(t0)
	return st, nil
}

// RunFused executes the fused loops under a core.Schedule produced by ICO.
// ks[l] is the kernel of loop l; each kernel's Prepare runs first, in loop
// order. threads only affects the potential-gain normalization and atomic
// mode — the schedule's own w-partition structure decides actual
// parallelism. The schedule is compiled on every call; callers that rerun
// one schedule should compile once via CompileFused and Run the Runner.
// A schedule that does not compile returns the compile error.
func RunFused(ks []kernels.Kernel, sched *core.Schedule, threads int) (Stats, error) {
	r, err := CompileFused(ks, sched)
	if err != nil {
		return Stats{}, err
	}
	return r.Run(threads)
}

// RunPartitioned executes one kernel under a baseline partitioning
// (wavefront, LBC or DAGP schedule of the kernel's own DAG).
func RunPartitioned(k kernels.Kernel, p *partition.Partitioning, threads int) (Stats, error) {
	r, err := CompilePartitioned(k, p)
	if err != nil {
		return Stats{}, err
	}
	return r.Run(threads)
}

// RunJoint executes two kernels under a partitioning of their joint DAG:
// the fused-wavefront / fused-LBC / fused-DAGP baselines.
func RunJoint(k1, k2 kernels.Kernel, p *partition.Partitioning, threads int) (Stats, error) {
	r, err := CompileJoint(k1, k2, p)
	if err != nil {
		return Stats{}, err
	}
	return r.Run(threads)
}
