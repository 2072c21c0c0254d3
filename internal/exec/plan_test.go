package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
)

// TestPlanUnitSize guards the shared plan's footprint: a dispatch unit is
// at most sixteen bytes and carries no interface, func or pointer field.
func TestPlanUnitSize(t *testing.T) {
	if sz := unsafe.Sizeof(unit{}); sz > 16 {
		t.Fatalf("plan unit is %d bytes, want <= 16", sz)
	}
}

// TestBindAllocatesNothingPerUnit binds the ~23.5k-unit lap2d:110 MV-MV
// plan, compiled and packed: a handful of per-loop and per-loop-pair
// allocations of a few hundred bytes, none of them proportional to the
// unit count.
func TestBindAllocatesNothingPerUnit(t *testing.T) {
	ks, prog := lap2dMvMv(t)
	plan := NewPlan(ks, prog)
	lay, err := relayout.Build(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	bind := func() {
		r, err := plan.Bind(ks)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AttachLayout(lay); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, bind); allocs > 6 {
		t.Fatalf("binding %d units allocated %v times, want <= 6", plan.NumUnits(), allocs)
	}
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		bind()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 1024 {
		t.Fatalf("binding %d units allocated %d bytes, want <= 1 KiB", plan.NumUnits(), per)
	}
}

// TestPlanSharedByRunners: runners bound from one plan dispatch the same
// units and produce bit-identical results, compiled and packed.
func TestPlanSharedByRunners(t *testing.T) {
	loops, ks, out := fusedTrsvTrsv(2000, 3)
	p := icoParams()
	p.ReuseRatio = 1.5
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileSchedule(sched, len(ks))
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(ks, prog)
	lay, err := relayout.Build(prog, ks)
	if err != nil {
		t.Fatal(err)
	}
	want := mustRunOut(t, NewRunner(ks, prog), out)
	for _, packed := range []bool{false, true} {
		r, err := plan.Bind(ks)
		if err != nil {
			t.Fatal(err)
		}
		if packed {
			if err := r.AttachLayout(lay); err != nil {
				t.Fatal(err)
			}
		}
		got := mustRunOut(t, r, out)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("packed=%v: output[%d] = %v, private runner %v", packed, i, got[i], want[i])
			}
		}
	}
}

func mustRunOut(t *testing.T, r *Runner, out func() []float64) []float64 {
	t.Helper()
	if _, err := r.Run(threads); err != nil {
		t.Fatal(err)
	}
	return out()
}

// TestBindRejectsMissingPairBody: a plan that coalesced a loop pair cannot
// bind kernels without a fused body for it (the caller demotes instead), nor
// a chain shorter than its loop count.
func TestBindRejectsMissingPairBody(t *testing.T) {
	ks := bindKernels()
	prog := syntheticProgram(t, len(ks), [][]uint8{alternating(40, 0, 1)}, fixedLen(1))
	plan := NewPlan(ks, prog)
	if len(plan.pairs) != 1 {
		t.Fatalf("fixture drifted: %d coalesced loop pairs, want 1", len(plan.pairs))
	}
	other := append([]kernels.Kernel(nil), ks...)
	other[1] = &stealProbe{n: 64, body: func(int) {}}
	if _, err := plan.Bind(other); err == nil {
		t.Fatal("plan bound kernels with no fused body for its pair units")
	}
	if _, err := plan.Bind(ks[:1]); err == nil {
		t.Fatal("plan bound fewer kernels than it has loops")
	}
}
