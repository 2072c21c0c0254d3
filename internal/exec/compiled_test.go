package exec

import (
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/wavefront"
)

// TestCompiledMatchesLegacyBitIdentical: on width-1 schedules (ICO at
// Threads=1) both executors run strictly sequentially in the same order with
// the same arithmetic, so outputs must match bit for bit, as must the
// barrier count.
func TestCompiledMatchesLegacyBitIdentical(t *testing.T) {
	for name, mk := range combos {
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := core.Params{Threads: 1, ReuseRatio: reuse, LBC: lbc.Params{InitialCut: 3, Agg: 8}}
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stL := mustRun(RunFusedLegacy(ks, sched, 1))
			legacy := snap()
			r, err := CompileFused(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			stC := mustRun(r.Run(1))
			compiled := snap()
			for i := range legacy {
				if compiled[i] != legacy[i] {
					t.Fatalf("%s reuse %v: output[%d] = %v, legacy %v", name, reuse, i, compiled[i], legacy[i])
				}
			}
			if stC.Barriers != stL.Barriers {
				t.Fatalf("%s reuse %v: %d barriers, legacy %d", name, reuse, stC.Barriers, stL.Barriers)
			}
		}
	}
}

// TestCompiledMatchesLegacyParallel: wide schedules run scatter kernels in
// atomic mode, whose accumulation order is nondeterministic, so parallel
// equivalence is up to floating-point reassociation plus an exact barrier
// count.
func TestCompiledMatchesLegacyParallel(t *testing.T) {
	for name, mk := range combos {
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := icoParams()
			p.ReuseRatio = reuse
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stL := mustRun(RunFusedLegacy(ks, sched, threads))
			legacy := snap()
			r, err := CompileFused(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			for rep := 0; rep < 3; rep++ {
				stC := mustRun(r.Run(threads))
				if e := sparse.RelErr(snap(), legacy); e > 1e-9 {
					t.Fatalf("%s reuse %v rep %d: compiled diverges from legacy by %v", name, reuse, rep, e)
				}
				if stC.Barriers != stL.Barriers {
					t.Fatalf("%s reuse %v: %d barriers, legacy %d", name, reuse, stC.Barriers, stL.Barriers)
				}
			}
		}
	}
}

// TestCompiledPartitionedMatchesLegacy: SpTRSV-CSR gathers (no scatter), so
// its per-row arithmetic order is fixed and even parallel partitioned runs
// must be bit-identical to the legacy executor.
func TestCompiledPartitionedMatchesLegacy(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(400, 5, 9))
	l := a.Lower()
	b := sparse.RandomVec(400, 10)
	x := make([]float64, 400)
	k := kernels.NewSpTRSVCSR(l, b, x)
	lb, err := lbc.Schedule(k.DAG(), threads, lbc.Params{InitialCut: 3, Agg: 10})
	if err != nil {
		t.Fatal(err)
	}
	stL := mustRun(RunPartitionedLegacy(k, lb, threads))
	legacy := append([]float64(nil), x...)
	stC := mustRun(RunPartitioned(k, lb, threads))
	for i := range legacy {
		if x[i] != legacy[i] {
			t.Fatalf("x[%d] = %v, legacy %v", i, x[i], legacy[i])
		}
	}
	if stC.Barriers != stL.Barriers {
		t.Fatalf("%d barriers, legacy %d", stC.Barriers, stL.Barriers)
	}
}

func TestCompiledJointMatchesLegacy(t *testing.T) {
	loops, ks, snap := fusedTrsvMv(350, 11)
	joint, err := dag.Joint(loops.G[0], loops.G[1], loops.F[0])
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wavefront.Schedule(joint, threads)
	if err != nil {
		t.Fatal(err)
	}
	stL := mustRun(RunJointLegacy(ks[0], ks[1], wf, threads))
	legacy := snap()
	stC := mustRun(RunJoint(ks[0], ks[1], wf, threads))
	if e := sparse.RelErr(snap(), legacy); e > 1e-9 {
		t.Fatalf("joint compiled diverges from legacy by %v", e)
	}
	if stC.Barriers != stL.Barriers {
		t.Fatalf("%d barriers, legacy %d", stC.Barriers, stL.Barriers)
	}
}

// TestRunnerSegmentsPaired checks that interleaved schedules actually take
// the fused-pair dispatch path rather than degenerating into thousands of
// one-iteration batch calls.
func TestRunnerSegmentsPaired(t *testing.T) {
	loops, ks, _ := fusedTrsvTrsv(300, 7)
	p := icoParams()
	p.ReuseRatio = 1.5 // force interleaved packing
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Interleaved {
		t.Skip("schedule not interleaved at this reuse ratio")
	}
	r, err := CompileFused(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	var paired int
	for _, u := range r.Plan().units {
		if u.pair != 0 {
			paired += int(u.hi - u.lo)
		}
	}
	if r.Plan().NumUnits() >= r.plan.prog.NumSegments() {
		t.Fatalf("no coalescing: %d dispatch units for %d raw segments", r.Plan().NumUnits(), r.plan.prog.NumSegments())
	}
	if paired == 0 {
		t.Fatal("interleaved trsv-trsv compiled without any fused pair segment")
	}
}

// benchFused builds the acceptance-criteria fixture: the SpTRSV -> SpMV pair
// of a Gauss-Seidel/PCG sweep (both gather kernels, so no atomic scatter
// masks the dispatch cost) on a synthetic banded SPD matrix, scheduled by
// ICO for 8 w-partitions.
func benchFused(b testing.TB, n int, reuse float64) ([]kernels.Kernel, *core.Schedule) {
	b.Helper()
	a := sparse.Must(sparse.BandedSPD(n, 1, 0.4, 1))
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
	sched, err := core.ICO(loops, core.Params{
		Threads: 8, ReuseRatio: reuse,
		LBC: lbc.Params{InitialCut: 3, Agg: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	return []kernels.Kernel{k1, k2}, sched
}

// BenchmarkFusedExecutor compares the compiled executor against the legacy
// slice walker on the SpTRSV -> SpMV pair at 8 w-partitions (the ISSUE's
// acceptance benchmark). Both run on the same spin-barrier pool, so the
// delta isolates dispatch: flat tagged stream + batch/pair bodies versus
// per-iteration interface calls.
func BenchmarkFusedExecutor(b *testing.B) {
	for _, tc := range []struct {
		name  string
		reuse float64
	}{
		{"separated", 0.5},
		{"interleaved", 1.5},
	} {
		ks, sched := benchFused(b, 40000, tc.reuse)
		r, err := CompileFused(ks, sched)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Run(8)
			}
		})
		b.Run(tc.name+"/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunFusedLegacy(ks, sched, 8)
			}
		})
	}
}

// BenchmarkPoolBarrier measures raw barrier round-trip cost: empty bodies,
// so ns/op is pure synchronization.
func BenchmarkPoolBarrier(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run("w"+string(rune('0'+workers)), func(b *testing.B) {
			pl := newPool(workers)
			defer pl.close()
			durs := make([]time.Duration, workers)
			body := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.run(workers, body, durs)
			}
		})
	}
}

// mustRun unwraps an executor result, panicking on error (which fails the
// test with a stack), keeping single-assignment call sites readable now that
// executors report faults.
func mustRun(st Stats, err error) Stats {
	if err != nil {
		panic(err)
	}
	return st
}
