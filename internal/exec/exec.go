// Package exec is the executor half of the inspector-executor pair: it runs
// fused schedules (core.Schedule) and baseline partitionings
// (partition.Partitioning) on goroutines, one per w-partition, with a
// barrier after every s-partition — the Go equivalent of the paper's
// "#pragma omp parallel for" per s-partition (figure 3).
//
// The executor instruments every barrier with per-w-partition run times and
// reports the OpenMP-potential-gain analogue: thread time lost to load
// imbalance and synchronization, divided by the thread count (paper
// figure 6, bottom).
package exec

import (
	"context"
	"runtime/debug"
	"time"

	"sparsefusion/internal/kernels"
	"sparsefusion/internal/partition"
)

// Stats reports one execution.
type Stats struct {
	// Elapsed is the wall-clock executor time.
	Elapsed time.Duration
	// Barriers counts synchronizations (one per s-partition).
	Barriers int
	// PotentialGain is sum over barriers of (max - mean) w-partition run
	// time: the wait time threads spend at barriers, averaged per thread.
	PotentialGain time.Duration
}

// AtomicSetter is implemented by kernels whose Run scatters into shared
// vectors and therefore needs atomic accumulation under concurrency
// (SpMV-CSC and SpTRSV-CSC).
type AtomicSetter interface {
	SetAtomic(bool)
}

// setAtomics switches scatter kernels into (or out of) atomic mode.
func setAtomics(ks []kernels.Kernel, on bool) {
	for _, k := range ks {
		if a, ok := k.(AtomicSetter); ok {
			a.SetAtomic(on)
		}
	}
}

func accumulate(st *Stats, durs []time.Duration, threads int) {
	st.Barriers++
	var maxD, sum time.Duration
	for _, d := range durs {
		sum += d
		if d > maxD {
			maxD = d
		}
	}
	width := threads
	if width < len(durs) {
		width = len(durs)
	}
	mean := sum / time.Duration(width)
	if maxD > mean {
		st.PotentialGain += maxD - mean
	}
}

// RunChain executes kernels one after another (unfused), each under its own
// partitioning, compiled on every call; callers that rerun one chain should
// compile once and use RunChainCompiled. Entries with a nil partitioning run
// serially. A partitioning that does not compile returns the compile error
// before any kernel runs.
func RunChain(ks []kernels.Kernel, ps []*partition.Partitioning, threads int) (Stats, error) {
	rs := make([]*Runner, len(ks))
	for i, p := range ps {
		if p == nil {
			continue
		}
		r, err := CompilePartitioned(ks[i], p)
		if err != nil {
			return Stats{}, err
		}
		rs[i] = r
	}
	return RunChainCompiled(ks, rs, threads)
}

// RunSerial runs the kernels one after another in loop order, each in plain
// iteration order (kernels.RunSeq). It needs no schedule: every DAG edge
// points from a lower to a higher iteration and every dependency matrix from
// an earlier loop to a later one, so this order respects both dependence
// classes by construction. It is the executor ladder's last rung, the
// executor of solvers whose schedule has no compiled program, and the
// sequential baseline the paper's amortization metric divides by (figure 7).
//
// ctx is checked before each kernel; a fired context returns a
// *CancelledError with SPartition -1. A fault returns an *ExecError with
// SPartition and WPartition -1, the error shape of the program rungs: a
// numerical breakdown carries its *kernels.BreakdownError (reach it with
// errors.As), and any other panic is recovered with its stack, so a faulty
// kernel cannot take the process down.
func RunSerial(ctx context.Context, ks []kernels.Kernel) (st Stats, err error) {
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = &ExecError{SPartition: -1, WPartition: -1, Recovered: r, Stack: debug.Stack()}
		}
		st.Elapsed = time.Since(t0)
	}()
	for _, k := range ks {
		if ctx.Err() != nil {
			return st, newCancelled(ctx)
		}
		if err := kernels.RunSeq(k); err != nil {
			return st, &ExecError{SPartition: -1, WPartition: -1, Recovered: err}
		}
	}
	return st, nil
}
