package sparsefusion

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sparsefusion/internal/cache"
	"sparsefusion/internal/chaos"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// The degradation ladder under test: construction-time attach failures and
// run-time executor faults demote an Operation packed -> compiled -> serial,
// each fault re-validating the program, leaving the operation usable and its
// results bit-identical to the serial reference. Numerical breakdowns, by
// contrast, never demote — they are a property of the data, not the rung.

// watchdog fails the test when fn does not return within the deadline — a
// worker fault must never hang a barrier, whatever the worker count.
func watchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("did not return within %v: executor hang", d)
		return nil
	}
}

func TestCorruptSavedScheduleRejected(t *testing.T) {
	m := RandomSPD(300, 4, 7)
	for th := 1; th <= 8; th++ {
		op, err := NewOperation(TrsvTrsv, m, Options{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := op.SaveSchedule(&buf); err != nil {
			t.Fatal(err)
		}
		// Corrupt the saved schedule's iteration indices: re-decode the
		// fingerprinted container, point an iteration far out of range,
		// re-encode under the same fingerprint. The loader must reject it
		// with a typed validation error, not execute it.
		key, sched, err := cache.ReadScheduleFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sp := sched.S[len(sched.S)-1]
		wp := sp[len(sp)-1]
		wp[len(wp)-1].Idx = 1 << 20
		var corrupt bytes.Buffer
		if err := cache.WriteScheduleFile(&corrupt, key, sched); err != nil {
			t.Fatal(err)
		}
		err = watchdog(t, 10*time.Second, func() error {
			badOp, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewReader(corrupt.Bytes()), Options{Threads: th})
			if err != nil {
				return err
			}
			_, err = badOp.Run()
			return err
		})
		if err == nil {
			t.Fatalf("threads=%d: corrupt schedule was accepted and executed", th)
		}

		// The untouched serialized schedule still loads, and the loaded
		// operation's Run is bit-identical to the serial reference.
		good, err := NewOperationFromSchedule(TrsvTrsv, m, bytes.NewReader(buf.Bytes()), Options{Threads: th})
		if err != nil {
			t.Fatalf("threads=%d: valid schedule rejected: %v", th, err)
		}
		if err := watchdog(t, 10*time.Second, func() error { _, err := good.Run(); return err }); err != nil {
			t.Fatalf("threads=%d: valid run failed: %v", th, err)
		}
		requireBitIdentical(t, fmt.Sprintf("threads=%d", th), good.Output(), sequentialOutput(t, TrsvTrsv, m))
	}
}

// sequentialOutput runs combination c over m on a fresh instance through
// combos.Instance.RunSequential — each kernel loop by loop, valid whatever
// the schedule — and returns the result: the reference every rung is held to.
func sequentialOutput(t *testing.T, c Combination, m *Matrix) []float64 {
	t.Helper()
	inst, err := combos.New(combos.ID(c), m.csr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.RunSequential(); err != nil {
		t.Fatal(err)
	}
	return inst.Snapshot()
}

func requireBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if !bitsSame(got, want) {
		t.Fatalf("%s: output not bit-identical to the reference", label)
	}
}

// requireCorruptProgramLadder corrupts op's program — shared by the packed
// and compiled rungs — so that it no longer decompiles to a valid schedule,
// runs op once and checks what the ladder must do with one fault: rebuild
// the fusion input once, re-inspect, go straight from packed to serial with
// both demotions on record, keep writing the inspected schedule, and stay
// bit-identical to the serial reference.
func requireCorruptProgramLadder(t *testing.T, label string, op *Operation, c Combination, m *Matrix) {
	t.Helper()
	if op.Mode() != ModePacked || op.sched != nil {
		t.Fatalf("%s: operation on %s, keeps nested schedule %v", label, op.Mode(), op.sched != nil)
	}
	var saved bytes.Buffer
	if err := op.SaveSchedule(&saved); err != nil {
		t.Fatal(err)
	}
	prog := op.runner.Program()
	prog.Iters[len(prog.Iters)-1] = kernels.PackIter(0, 1<<20)

	before := combos.LoopBuilds()
	if err := watchdog(t, 10*time.Second, func() error { _, err := op.Run(); return err }); err != nil {
		t.Fatalf("%s: ladder did not absorb the fault: %v", label, err)
	}
	if got := combos.LoopBuilds() - before; got != 1 {
		t.Fatalf("%s: %d fusion-input builds for one fault, want 1", label, got)
	}
	h := op.Health()
	if h.Mode != ModeSerial || len(h.Demotions) != 2 ||
		h.Demotions[0].From != ModePacked || h.Demotions[0].To != ModeCompiled ||
		h.Demotions[1].From != ModeCompiled || h.Demotions[1].To != ModeSerial ||
		h.Demotions[0].Reason != h.Demotions[1].Reason {
		t.Fatalf("%s: health %+v, want packed->compiled->serial for one reason", label, h)
	}
	var after bytes.Buffer
	if err := op.SaveSchedule(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), after.Bytes()) {
		t.Fatalf("%s: SaveSchedule no longer writes the inspected schedule", label)
	}
	want := sequentialOutput(t, c, m)
	requireBitIdentical(t, label+" (faulted run)", op.Output(), want)
	if _, err := op.Run(); err != nil {
		t.Fatalf("%s: demoted operation unusable: %v", label, err)
	}
	requireBitIdentical(t, label, op.Output(), want)
}

func TestRunFaultDemotesDownTheLadder(t *testing.T) {
	m := RandomSPD(300, 4, 9)
	for th := 1; th <= 8; th++ {
		op, err := NewOperation(TrsvTrsv, m, Options{Threads: th})
		if err != nil {
			t.Fatal(err)
		}
		requireCorruptProgramLadder(t, fmt.Sprintf("threads=%d", th), op, TrsvTrsv, m)
	}
}

// serialOperation returns a TrsvTrsv operation moved onto the serial rung,
// where a fault on the compiled rung would leave it.
func serialOperation(t *testing.T, m *Matrix) *Operation {
	t.Helper()
	op, err := NewOperation(TrsvTrsv, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	demoteTo(&op.execState, ModeSerial)
	if op.Mode() != ModeSerial {
		t.Fatalf("mode %s with no runner, want serial", op.Mode())
	}
	return op
}

// TestSerialRungCancelledContext: the serial rung checks the context too — a
// dead one returns the typed *CancelledError without touching the ladder —
// and the operation stays usable, directly and on a server.
func TestSerialRungCancelledContext(t *testing.T) {
	m := RandomSPD(300, 4, 9)
	op := serialOperation(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := op.RunContext(ctx)
	var c *CancelledError
	if !errors.As(err, &c) || c.SPartition != -1 {
		t.Fatalf("got %T (%v), want *CancelledError at s-partition -1", err, err)
	}
	if h := op.Health(); h.Mode != ModeSerial || len(h.Demotions) != 0 {
		t.Fatalf("cancellation changed health: %+v", h)
	}
	want := sequentialOutput(t, TrsvTrsv, m)
	if _, err := op.Run(); err != nil {
		t.Fatalf("operation unusable after cancellation: %v", err)
	}
	requireBitIdentical(t, "serial rung", op.Output(), want)
	sv := NewServer(ServerConfig{MaxConcurrent: 1, Width: 1})
	defer sv.Close()
	if _, err := op.RunOn(sv); err != nil {
		t.Fatalf("serial rung on a server: %v", err)
	}
	requireBitIdentical(t, "serial rung on a server", op.Output(), want)
}

// TestSerialRungRecoversInjectedPanic: a kernel panic on the last rung is
// returned as an *ExecError — the process survives, nothing is left to
// demote to — and the operation runs again once the kernel is sound.
func TestSerialRungRecoversInjectedPanic(t *testing.T) {
	m := RandomSPD(300, 4, 9)
	op := serialOperation(t, m)
	sound := op.inst.Kernels[1]
	op.inst.Kernels[1] = chaos.NewPanic(sound, 150)
	_, err := op.Run()
	var xe *ExecError
	if !errors.As(err, &xe) || xe.Breakdown() != nil {
		t.Fatalf("got %T (%v), want a non-breakdown *ExecError", err, err)
	}
	if h := op.Health(); h.Mode != ModeSerial || len(h.Demotions) != 0 {
		t.Fatalf("fault on the last rung changed health: %+v", h)
	}
	op.inst.Kernels[1] = sound
	if _, err := op.Run(); err != nil {
		t.Fatalf("operation unusable after the fault: %v", err)
	}
	requireBitIdentical(t, "serial rung", op.Output(), sequentialOutput(t, TrsvTrsv, m))
}

// TestGaussSeidelWithoutProgramRunsSerially: nine sweeps per fusion are 18
// loops, beyond what a program can tag, so the solver runs its sweeps
// serially. Both sweep kernels gather, so nine sweeps in one serial chain
// equal three fused chains of three sweeps bit for bit.
func TestGaussSeidelWithoutProgramRunsSerially(t *testing.T) {
	m := Laplacian2D(12)
	b := sparse.RandomVec(m.Rows(), 3)
	var xs [][]float64
	for _, sweeps := range []int{9, 3} {
		gs, err := NewGaussSeidel(m, GSOptions{Options: Options{Threads: 2}, SweepsPerFusion: sweeps})
		if err != nil {
			t.Fatal(err)
		}
		if (gs.run == nil) != (sweeps == 9) {
			t.Fatalf("%d sweeps per fusion: compiled program %v", sweeps, gs.run != nil)
		}
		if gs.Barriers() <= 0 {
			t.Fatalf("%d sweeps per fusion: %d barriers reported", sweeps, gs.Barriers())
		}
		x, done, err := gs.Solve(b, 0, 9)
		if err != nil || done != 9 {
			t.Fatalf("%d sweeps per fusion: %d sweeps, %v", sweeps, done, err)
		}
		xs = append(xs, x)
	}
	requireBitIdentical(t, "9 serial sweeps vs 3x3 fused", xs[0], xs[1])
}

func TestUnpackableChainRecordsConstructionDemotion(t *testing.T) {
	// DscalIlu0 has no packed layout; the operation must start on the
	// compiled rung with the construction demotion on record.
	op, err := NewOperation(DscalIlu0, RandomSPD(200, 4, 3), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := op.Health()
	if h.Mode != ModeCompiled {
		t.Fatalf("mode %s, want compiled", h.Mode)
	}
	if len(h.Demotions) != 1 || h.Demotions[0].From != ModePacked || h.Demotions[0].To != ModeCompiled {
		t.Fatalf("demotions %+v, want one packed->compiled", h.Demotions)
	}
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownDoesNotDemote(t *testing.T) {
	// An indefinite matrix breaks down IC0. That is a property of the
	// numbers: the ladder must surface the typed error without demoting.
	m := RandomSPD(150, 4, 21)
	for p := m.csr.P[80]; p < m.csr.P[81]; p++ {
		if m.csr.I[p] == 80 {
			m.csr.X[p] = -5
		}
	}
	op, err := NewOperation(Ic0Trsv, m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := op.Health()
	_, err = op.Run()
	if err == nil {
		t.Fatal("IC0 on an indefinite matrix ran without error")
	}
	var bd *kernels.BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("error %T does not unwrap to a BreakdownError: %v", err, err)
	}
	after := op.Health()
	if after.Mode != before.Mode || len(after.Demotions) != len(before.Demotions) {
		t.Fatalf("breakdown changed health %+v -> %+v", before, after)
	}
}

func TestPreconditionerTranslatesBreakdown(t *testing.T) {
	// The solver-facing wrapper must name the kernel and row in its message
	// and keep the BreakdownError reachable through errors.As.
	m := RandomSPD(100, 3, 2)
	for p := m.csr.P[40]; p < m.csr.P[41]; p++ {
		if m.csr.I[p] == 40 {
			m.csr.X[p] = -3
		}
	}
	_, err := NewIC0Preconditioner(m, Options{Threads: 2})
	if err == nil {
		t.Fatal("IC0 preconditioner setup accepted an indefinite matrix")
	}
	var bd *kernels.BreakdownError
	if !errors.As(err, &bd) {
		t.Fatalf("setup error %T hides the BreakdownError: %v", err, err)
	}
}
