package combos

import (
	"bytes"
	"fmt"
	"testing"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/order"
	"sparsefusion/internal/sparse"
)

// roundTripMatrices are the families the decompile round trip covers: a 2D
// Laplacian in natural and nested-dissection order, a 3D Laplacian and a
// power-law SPD matrix.
func roundTripMatrices(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	lap2 := sparse.Must(sparse.Laplacian2D(24))
	perm, err := order.NestedDissection(lap2, 64)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := sparse.PermuteSym(lap2, perm)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR{
		"lap2d":     lap2,
		"lap2d-nd":  nd,
		"lap3d":     sparse.Must(sparse.Laplacian3D(8)),
		"power-law": sparse.Must(sparse.PowerLawSPD(600, 3, 5)),
	}
}

// requireRoundTrip checks that compiling the schedule and decompiling the
// program restores it byte for byte, reuse ratio included.
func requireRoundTrip(t *testing.T, name string, sched *core.Schedule, loops int) {
	t.Helper()
	prog, err := core.CompileSchedule(sched, loops)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	back := prog.Decompile()
	if !bytes.Equal(back.Bytes(), sched.Bytes()) || back.ReuseRatio != sched.ReuseRatio || prog.ReuseRatio != sched.ReuseRatio {
		t.Fatalf("%s: decompiled schedule differs (reuse %v / %v, want %v)", name, back.ReuseRatio, prog.ReuseRatio, sched.ReuseRatio)
	}
}

// TestDecompileRoundTrip: a holder of a program keeps no nested schedule, so
// Program.Decompile must restore the inspected one exactly — for every
// combination over every matrix family at threads 1, 2, 3 and 8, for the
// Gauss-Seidel chain and for the PCG chain.
func TestDecompileRoundTrip(t *testing.T) {
	for mname, a := range roundTripMatrices(t) {
		for _, id := range append(append([]ID(nil), All...), MvMv) {
			in, err := New(id, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{1, 2, 3, 8} {
				sched, err := in.ico(th, lp())
				if err != nil {
					t.Fatal(err)
				}
				if sched.ReuseRatio != in.ReuseRatio() {
					t.Fatalf("%s/%s: schedule reuse %v, instance %v", mname, in.Name, sched.ReuseRatio, in.ReuseRatio())
				}
				requireRoundTrip(t, fmt.Sprintf("%s/%s/threads=%d", mname, in.Name, th), sched, len(in.Kernels))
			}
		}
	}
	a := sparse.Must(sparse.Laplacian2D(24))
	gs, err := BuildGS(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := pcgGroup(sparse.Must(sparse.Laplacian3D(8)), 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*Instance{gs, pcg} {
		for _, th := range []int{1, 2, 3, 8} {
			sched, err := in.ico(th, lp())
			if err != nil {
				t.Fatal(err)
			}
			requireRoundTrip(t, fmt.Sprintf("%s/threads=%d", in.Name, th), sched, len(in.Kernels))
		}
	}
}

// pcgGroup composes the 8-loop IC0-PCG chain the fused solver runs.
func pcgGroup(a *sparse.CSR, block int) (*Instance, error) {
	n := a.Rows
	nb := (n + block - 1) / block
	vec := func(m int) []float64 { return make([]float64, m) }
	x, r, p, q, y, z := vec(n), vec(n), vec(n), vec(n), vec(n), vec(n)
	partPQ, partRZ, partRR, rz := vec(nb), vec(nb), vec(nb), []float64{1}
	lc := a.Lower().ToCSC()
	if err := kernels.RunSeq(kernels.NewSpIC0CSC(lc)); err != nil {
		return nil, err
	}
	ch, err := BuildChain(ChainSpec{Name: "pcg", Links: []ChainLink{
		{K: kernels.NewSpMVCSR(a, p, q)},
		{K: kernels.NewVecDot(p, q, partPQ, block), F: core.FBlockAgg(nb, n, block)},
		{K: kernels.NewVecAxpyDot(p, x, rz, partPQ, +1, block, true), F: core.FDense(nb, nb)},
		{K: kernels.NewVecAxpyDot(q, r, rz, partPQ, -1, block, false), F: core.FDiagonal(nb)},
		{K: kernels.NewSpTRSVCSR(lc.ToCSR(), r, y), F: core.FBlockExpand(n, nb, block)},
		{K: kernels.NewSpTRSVTransCSC(lc, y, z), F: core.FAntiDiagonal(n)},
		{K: kernels.NewVecDotDual(r, z, partRZ, r, r, partRR, block), F: core.FBlockAggFlip(nb, n, block)},
		{K: kernels.NewVecXpayDot(z, p, rz, partRZ, block), F: core.FDense(nb, nb)},
	}})
	if err != nil {
		return nil, err
	}
	return ch.Groups[0], nil
}

// TestNewBuildsFusionInputOnRequest: an instance from New keeps no fusion
// input, builds one per FusionInput call (counted by LoopBuilds), and that
// input schedules exactly like Build's materialized one; a session clone
// shares nothing of it either.
func TestNewBuildsFusionInputOnRequest(t *testing.T) {
	a := sparse.Must(sparse.RandomSPD(300, 5, 17))
	for _, id := range append(append([]ID(nil), All...), MvMv) {
		lean, err := New(id, a)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Build(id, a)
		if err != nil {
			t.Fatal(err)
		}
		if lean.Loops != nil || lean.Reuse != 0 || full.Loops == nil {
			t.Fatalf("%s: New keeps loops %v, reuse %v; Build keeps loops %v", lean.Name, lean.Loops != nil, lean.Reuse, full.Loops != nil)
		}
		before := LoopBuilds()
		l1, err := lean.FusionInput()
		if err != nil {
			t.Fatal(err)
		}
		l2, err := lean.FusionInput()
		if err != nil {
			t.Fatal(err)
		}
		if got := LoopBuilds() - before; got != 2 || l1 == l2 || lean.Loops != nil {
			t.Fatalf("%s: %d builds for two requests (shared %v, kept %v)", lean.Name, got, l1 == l2, lean.Loops != nil)
		}
		if lean.ReuseRatio() != full.Reuse {
			t.Fatalf("%s: reuse %v, Build's %v", lean.Name, lean.ReuseRatio(), full.Reuse)
		}
		ls, err := core.ICO(l1, core.Params{Threads: threads, ReuseRatio: lean.ReuseRatio()})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := core.ICO(full.Loops, core.Params{Threads: threads, ReuseRatio: full.Reuse})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ls.Bytes(), fs.Bytes()) {
			t.Fatalf("%s: schedule from the on-request fusion input differs", lean.Name)
		}
		if c, err := lean.CloneForSession(); err == nil {
			if c.Loops != nil || c.ReuseRatio() != full.Reuse {
				t.Fatalf("%s: clone keeps loops %v, reuse %v", lean.Name, c.Loops != nil, c.ReuseRatio())
			}
		}
	}
}
