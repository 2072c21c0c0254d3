package exec

import (
	"context"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
	"sparsefusion/internal/wavefront"
)

// serialRef runs a fresh copy of a fixture through RunSerial: the reference
// output every executor of the same fixture is compared with.
func serialRef(mk comboFn, n int, seed int64) []float64 {
	_, ks, snap := mk(n, seed)
	mustRun(RunSerial(context.Background(), ks))
	return snap()
}

// TestCompiledMatchesLegacyBitIdentical: on width-1 schedules (ICO at
// Threads=1) the compiled executor runs strictly sequentially, so outputs
// must match the serial reference bit for bit (within scatterBound for the
// scatter combinations), and the run pays one barrier per s-partition of the
// program.
func TestCompiledMatchesLegacyBitIdentical(t *testing.T) {
	for name, mk := range combos {
		want := serialRef(mk, 300, 7)
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := core.Params{Threads: 1, ReuseRatio: reuse, LBC: lbc.Params{InitialCut: 3, Agg: 8}}
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, err := CompileFused(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			st := mustRun(r.Run(1))
			got := snap()
			if !matchesSerial(name, got, want) {
				t.Fatalf("%s reuse %v: output diverges from serial by %v", name, reuse, sparse.RelErr(got, want))
			}
			if st.Barriers != r.Program().NumSPartitions() {
				t.Fatalf("%s reuse %v: %d barriers, program has %d s-partitions", name, reuse, st.Barriers, r.Program().NumSPartitions())
			}
		}
	}
}

// TestCompiledMatchesLegacyParallel: wide schedules run scatter kernels in
// atomic mode, whose accumulation order is nondeterministic, so parallel
// equivalence with the serial reference is up to floating-point
// reassociation plus an exact barrier count.
func TestCompiledMatchesLegacyParallel(t *testing.T) {
	for name, mk := range combos {
		want := serialRef(mk, 300, 7)
		for _, reuse := range []float64{0.5, 1.5} {
			loops, ks, snap := mk(300, 7)
			p := icoParams()
			p.ReuseRatio = reuse
			sched, err := core.ICO(loops, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, err := CompileFused(ks, sched)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			for rep := 0; rep < 3; rep++ {
				st := mustRun(r.Run(threads))
				if e := sparse.RelErr(snap(), want); e > 1e-9 {
					t.Fatalf("%s reuse %v rep %d: compiled diverges from serial by %v", name, reuse, rep, e)
				}
				if st.Barriers != r.Program().NumSPartitions() {
					t.Fatalf("%s reuse %v: %d barriers, program has %d s-partitions", name, reuse, st.Barriers, r.Program().NumSPartitions())
				}
			}
		}
	}
}

// TestCompiledPartitionedMatchesLegacy: SpTRSV-CSR gathers (no scatter), so
// its per-row arithmetic order is fixed and even parallel partitioned runs
// must be bit-identical to the serial reference.
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
	mustRun(RunSerial(context.Background(), []kernels.Kernel{k}))
	want := append([]float64(nil), x...)
	for i := range x {
		x[i] = 0
	}
	r, err := CompilePartitioned(k, lb)
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(r.Run(threads))
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x[%d] = %v, serial %v", i, x[i], want[i])
		}
	}
	if st.Barriers != r.Program().NumSPartitions() || st.Barriers != len(lb.S) {
		t.Fatalf("%d barriers, program has %d s-partitions, partitioning %d", st.Barriers, r.Program().NumSPartitions(), len(lb.S))
	}
}

func TestCompiledJointMatchesLegacy(t *testing.T) {
	want := serialRef(fusedTrsvMv, 350, 11)
	loops, ks, snap := fusedTrsvMv(350, 11)
	joint, err := dag.Joint(loops.G[0], loops.G[1], loops.F[0])
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wavefront.Schedule(joint, threads)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileJoint(ks[0], ks[1], wf)
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(r.Run(threads))
	if e := sparse.RelErr(snap(), want); e > 1e-9 {
		t.Fatalf("joint compiled diverges from serial by %v", e)
	}
	if st.Barriers != r.Program().NumSPartitions() || st.Barriers != len(wf.S) {
		t.Fatalf("%d barriers, program has %d s-partitions, partitioning %d", st.Barriers, r.Program().NumSPartitions(), len(wf.S))
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

// BenchmarkFusedExecutor times the compiled executor on the SpTRSV -> SpMV
// pair at 8 w-partitions, separated and interleaved: flat tagged stream plus
// batch/pair bodies on the spin-barrier pool.
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
