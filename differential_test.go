package sparsefusion

import (
	"fmt"
	"math"
	"testing"
)

// scatterBound is the relative error allowed where a kernel scatters with
// atomic adds (TRSV-MV's CSC SpMV, IC0-TRSV's CSC triangular solve): there
// the order of additions into one element depends on the schedule, so the
// result may differ from the serial order in the last bits. Every other
// combination must match the serial reference bit for bit.
const scatterBound = 1e-12

// TestDifferentialRungsMatchSequential is the differential test of the
// executor ladder: every combination, over a natural-order 2D Laplacian, its
// nested-dissection reordering and a power-law matrix, at 1-3 threads with
// stealing off and on, on every rung the state reaches — packed where it
// attaches, compiled, serial. Each schedule must validate, and each rung's
// output must match combos.Instance.RunSequential on a fresh instance. The
// orderings are chosen so every combination has a case whose program is
// wide (MaxWidth > 1): a parallel executor is only tested when it runs in
// parallel.
func TestDifferentialRungsMatchSequential(t *testing.T) {
	nd, _, err := Laplacian2D(24).Reorder()
	if err != nil {
		t.Fatal(err)
	}
	mats := []struct {
		name string
		m    *Matrix
	}{
		{"lap2d", Laplacian2D(24)},
		{"lap2d-nd", nd},
		{"power-law", PowerLawSPD(600, 3, 5)},
	}
	for _, c := range []Combination{TrsvTrsv, DscalIlu0, TrsvMv, Ic0Trsv, Ilu0Trsv, DscalIc0, MvMv} {
		wide := false
		for _, mat := range mats {
			want := sequentialOutput(t, c, mat.m)
			for th := 1; th <= 3; th++ {
				for _, steal := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/threads=%d/steal=%v", c, mat.name, th, steal)
					op, err := NewOperation(c, mat.m, Options{Threads: th, Steal: steal})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := op.validate(op.schedule()); err != nil {
						t.Fatalf("%s: schedule invalid: %v", label, err)
					}
					wide = wide || op.prog.MaxWidth > 1
					for _, mode := range []ExecMode{ModePacked, ModeCompiled, ModeSerial} {
						if mode == ModePacked && op.Mode() != ModePacked {
							continue
						}
						demoteTo(&op.execState, mode)
						if op.Mode() != mode {
							t.Fatalf("%s: on %s, want %s", label, op.Mode(), mode)
						}
						// Poison the output, so a rung that computes nothing
						// cannot pass on the previous rung's result.
						for i := range op.inst.Output {
							op.inst.Output[i] = math.NaN()
						}
						if _, err := op.Run(); err != nil {
							t.Fatalf("%s %s: %v", label, mode, err)
						}
						// A fault the ladder absorbed would hide the rung's
						// own result behind a lower rung's.
						if op.Mode() != mode {
							t.Fatalf("%s: demoted off %s during the run: %+v", label, mode, op.Health())
						}
						got := op.Output()
						if c == TrsvMv || c == Ic0Trsv {
							requireWithinScatterBound(t, label+" "+string(mode), got, want)
						} else {
							requireBitIdentical(t, label+" "+string(mode), got, want)
						}
					}
				}
			}
		}
		if !wide {
			t.Errorf("%s: no case has a program wider than one w-partition", c)
		}
	}
}

// requireWithinScatterBound checks max|got-want| <= scatterBound*max|want|.
func requireWithinScatterBound(t *testing.T, label string, got, want []float64) {
	t.Helper()
	var diff, norm float64
	for i := range want {
		diff = max(diff, math.Abs(got[i]-want[i]))
		norm = max(norm, math.Abs(want[i]))
	}
	if !(diff <= scatterBound*norm) {
		t.Fatalf("%s: off the serial reference by %g relative (bound %g)", label, diff/norm, scatterBound)
	}
}

// demoteTo moves a state down the ladder to mode without recording a
// demotion: detaching the packed layout leaves the compiled rung, dropping
// the runner the serial one.
func demoteTo(e *execState, mode ExecMode) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if mode == ModePacked {
		return
	}
	if e.runner != nil && e.runner.Packed() {
		e.runner.DetachLayout()
		e.layout = nil
	}
	if mode == ModeSerial {
		e.runner = nil
	}
}
