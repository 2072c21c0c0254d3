package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparsefusion/internal/chaos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The fault-channel contract under test: a worker-body panic — whether an
// out-of-bounds iteration from a corrupt schedule or a typed numerical
// breakdown — must surface as an error from the executor, never as a hung
// barrier or a crashed process, at any worker count, and the fixtures must
// stay runnable afterwards.

// watchdog runs fn and fails the test if it does not return within the
// deadline — the symptom of a worker dying short of the barrier.
func watchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("executor did not return within %v: barrier hang on worker fault", d)
		return nil
	}
}

var faultWorkerCounts = []int{1, 2, 4, 8}

// corruptSchedule returns an ICO schedule for the combo with one iteration
// index rewritten far out of the kernel's range, so the executor's dispatch
// indexes out of bounds and panics inside a worker body.
func corruptTrsvMv(t *testing.T, th int) (*core.Schedule, []kernels.Kernel) {
	t.Helper()
	loops, ks, _ := fusedTrsvMv(300, int64(th))
	p := icoParams()
	p.Threads = th
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last s-partition so earlier rounds run normally first: the
	// fault must propagate through barriers that have already succeeded.
	sp := sched.S[len(sched.S)-1]
	wp := sp[len(sp)-1]
	wp[len(wp)-1].Idx = 1 << 20 // far beyond the 300-row fixture
	return sched, ks
}

// TestRunSerialRecoversPanic: a non-numerical kernel panic on the serial
// executor returns as an *ExecError carrying its stack — never a crashed
// process — a breakdown returns as an *ExecError that unwraps to the
// *kernels.BreakdownError, and the kernels stay runnable afterwards.
func TestRunSerialRecoversPanic(t *testing.T) {
	ctx := context.Background()
	want := serialRef(fusedTrsvMv, 300, 3)
	_, ks, snap := fusedTrsvMv(300, 3)
	_, err := RunSerial(ctx, []kernels.Kernel{ks[0], chaos.NewPanic(ks[1], 150)})
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("error %T is not *ExecError: %v", err, err)
	}
	if ee.Breakdown() != nil || len(ee.Stack) == 0 || ee.SPartition != -1 || ee.WPartition != -1 {
		t.Fatalf("injected panic misreported: breakdown %v, %d stack bytes, s %d, w %d",
			ee.Breakdown(), len(ee.Stack), ee.SPartition, ee.WPartition)
	}
	_, err = RunSerial(ctx, []kernels.Kernel{ks[0], chaos.NewBreakdown(ks[1], 150)})
	var bd *kernels.BreakdownError
	if !errors.As(err, &bd) || bd.Row != 150 {
		t.Fatalf("breakdown does not unwrap to the BreakdownError at row 150: %v", err)
	}
	if !errors.As(err, &ee) || ee.Breakdown() != bd || ee.SPartition != -1 {
		t.Fatalf("breakdown is not an *ExecError on the serial rung: %T %v", err, err)
	}
	mustRun(RunSerial(ctx, ks))
	got := snap()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v after faults, want %v", i, got[i], want[i])
		}
	}
}

func TestCompiledExecutorSurvivesCorruptProgram(t *testing.T) {
	for _, th := range faultWorkerCounts {
		loops, ks, _ := fusedTrsvMv(300, int64(th))
		p := icoParams()
		p.Threads = th
		sched, err := core.ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := CompileFused(ks, sched)
		if err != nil {
			t.Fatal(err)
		}
		prog := r.Program()
		last := len(prog.Iters) - 1
		saved := prog.Iters[last]
		prog.Iters[last] = kernels.PackIter(0, 1<<20)
		err = watchdog(t, 10*time.Second, func() error {
			_, err := r.Run(th)
			return err
		})
		if err == nil {
			t.Fatalf("threads=%d: corrupt program executed without error", th)
		}
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("threads=%d: error %T is not *ExecError: %v", th, err, err)
		}
		if ee.WPartition < 0 {
			t.Fatalf("threads=%d: compiled path lost the w-partition attribution", th)
		}

		// The Runner must be re-armed: restoring the program makes the same
		// Runner produce a clean run again.
		prog.Iters[last] = saved
		if _, err := r.Run(th); err != nil {
			t.Fatalf("threads=%d: runner unusable after fault: %v", th, err)
		}
	}
}

func TestFaultAbandonsRemainingRounds(t *testing.T) {
	// Corrupt the FIRST s-partition; iterations of later rounds must not run.
	loops, ks, _ := fusedTrsvTrsv(300, 5)
	p := icoParams()
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.S) < 2 {
		t.Skip("schedule has a single s-partition")
	}
	sched.S[0][0][0].Idx = 1 << 20
	r, err := CompileFused(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run(threads)
	if err == nil {
		t.Fatal("corrupt first round executed without error")
	}
	if st.Barriers != 1 {
		t.Fatalf("executor ran %d barriers after a first-round fault, want 1", st.Barriers)
	}
	_ = loops
}

func TestBreakdownSurfacesThroughParallelExecutor(t *testing.T) {
	// A zero diagonal makes SpTRSV breakdown; through the fused executor the
	// error must arrive as *ExecError wrapping the *kernels.BreakdownError.
	a := sparse.Must(sparse.RandomSPD(200, 4, 77))
	l := a.Lower()
	// Zero a late diagonal so several rounds complete first.
	row := 190
	for p := l.P[row]; p < l.P[row+1]; p++ {
		if l.I[p] == row {
			l.X[p] = 0
		}
	}
	b := sparse.RandomVec(200, 3)
	x := make([]float64, 200)
	k := kernels.NewSpTRSVCSR(l, b, x)
	loops := &core.Loops{G: []*dag.Graph{k.DAG()}}
	sched, err := core.ICO(loops, icoParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range faultWorkerCounts {
		err := watchdog(t, 10*time.Second, func() error {
			_, err := RunFused([]kernels.Kernel{k}, sched, th)
			return err
		})
		if err == nil {
			t.Fatalf("threads=%d: zero-diagonal TRSV ran without error", th)
		}
		var bd *kernels.BreakdownError
		if !errors.As(err, &bd) {
			t.Fatalf("threads=%d: error does not unwrap to BreakdownError: %v", th, err)
		}
		if bd.Row != row {
			t.Fatalf("threads=%d: breakdown at row %d, want %d", th, bd.Row, row)
		}
		var ee *ExecError
		if !errors.As(err, &ee) {
			t.Fatalf("threads=%d: breakdown not carried by *ExecError: %v", th, err)
		}
	}
}
