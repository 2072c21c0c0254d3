package main

import (
	"fmt"
	"math"

	sf "sparsefusion"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/sparse"
)

// This file holds everything the benchmark checks results against and every
// figure it derives without trusting the program's schedule: the program's
// outputs are compared with combos.Instance.RunSequential (each kernel run
// loop by loop, valid whatever the schedule), and PCG solutions with a
// residual from the benchmark's own CSR SpMV.

// toMatrix hands a generated matrix to the program through its public
// constructor, so the program sees only generated inputs.
func toMatrix(a *sparse.CSR) (*sf.Matrix, error) {
	es := make([]sf.Entry, 0, a.NNZ())
	for r := 0; r < a.Rows; r++ {
		for p := a.P[r]; p < a.P[r+1]; p++ {
			es = append(es, sf.Entry{Row: r, Col: a.I[p], Val: a.X[p]})
		}
	}
	return sf.NewMatrix(a.Rows, a.Cols, es)
}

// relResidual is ||b - A x||_2 / ||b||_2 from a plain CSR SpMV.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for p := a.P[i]; p < a.P[i+1]; p++ {
			s += a.X[p] * x[a.I[p]]
		}
		d := b[i] - s
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// scatterBound is the norm-wise relative error allowed where a kernel
// scatters with atomic adds (SpMV-CSC, the CSC triangular solve): there the
// order of additions into one element depends on the schedule, so results
// may differ from the serial order in the last bits. Everything else must be
// bit-identical.
const scatterBound = 1e-12

// exactCombo reports whether every kernel of the combination writes each
// element from one iteration in a fixed order (gather kernels and the
// in-place factorizations), so its output must match the oracle bit for bit.
func exactCombo(c sf.Combination) bool {
	return c != sf.TrsvMv && c != sf.Ic0Trsv
}

// compareOutput checks got against the oracle's want.
func compareOutput(got, want []float64, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("output length %d, want %d", len(got), len(want))
	}
	if exact {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("output[%d] = %v, oracle %v (must be bit-identical)", i, got[i], want[i])
			}
		}
		return nil
	}
	var diff, norm float64
	for i := range got {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		norm = math.Max(norm, math.Abs(want[i]))
	}
	if !(diff <= scatterBound*norm) {
		return fmt.Errorf("output off the oracle by %.3g relative (bound %g)", diff/norm, scatterBound)
	}
	return nil
}

// comboInstance instantiates combination c over a, as NewOperation does.
func comboInstance(c sf.Combination, a *sparse.CSR) (*combos.Instance, error) {
	return combos.Build(combos.ID(c), a)
}

// oracleOutput runs combination c over a serially, on input x (nil keeps
// the combination's own deterministic input, as NewOperation does).
func oracleOutput(c sf.Combination, a *sparse.CSR, x []float64) ([]float64, error) {
	inst, err := comboInstance(c, a)
	if err != nil {
		return nil, err
	}
	if x != nil {
		copy(inst.Input, x)
	}
	if _, err := inst.RunSequential(); err != nil {
		return nil, err
	}
	return inst.Snapshot(), nil
}

// shape is what the inspector built for one loop chain, recomputed outside
// the program: ICO is deterministic, so the same loops and parameters give
// the schedule the program runs.
type shape struct {
	SPartitions int
	MaxWidth    int
	Parallelism float64 // iterations / critical-path iterations
	Reuse       float64
	Flops       int64 // per run
}

func shapeOf(inst *combos.Instance, threads int) (shape, error) {
	sched, err := core.ICO(inst.Loops, core.Params{Threads: threads, ReuseRatio: inst.Reuse})
	if err != nil {
		return shape{}, err
	}
	g, err := inst.JointGraph()
	if err != nil {
		return shape{}, err
	}
	cp, err := g.CriticalPath()
	if err != nil {
		return shape{}, err
	}
	return shape{
		SPartitions: sched.NumSPartitions(),
		MaxWidth:    sched.MaxWidth(),
		Parallelism: float64(inst.Loops.TotalIterations()) / float64(cp+1),
		Reuse:       inst.Reuse,
		Flops:       inst.FlopCount(),
	}, nil
}

// pcgInstance rebuilds the 8-loop chain NewFusedCG composes for IC0-PCG —
// the same kernels, dependency matrices and block size — because the facade
// exposes the chain's barrier count but not its DAGs or flop count.
func pcgInstance(a *sparse.CSR, block int) (*combos.Instance, error) {
	n := a.Rows
	nb := (n + block - 1) / block
	vec := func(m int) []float64 { return make([]float64, m) }
	x, r, p, q, y, z := vec(n), vec(n), vec(n), vec(n), vec(n), vec(n)
	partPQ, partRZ, partRR, rz := vec(nb), vec(nb), vec(nb), []float64{1}
	lc := a.Lower().ToCSC()
	if err := kernels.RunSeq(kernels.NewSpIC0CSC(lc)); err != nil {
		return nil, err
	}
	ch, err := combos.BuildChain(combos.ChainSpec{Name: "pcg", Links: []combos.ChainLink{
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

// Bytes a run moves, computed (not measured) from matrix and vector sizes: a
// matrix entry is an 8-byte value plus a 4-byte packed index, a vector
// element 8 bytes per read or write.
const entryBytes, elemBytes = 12, 8

// comboBytes is the computed traffic of one run of a served combination over
// a matrix with nnz entries and n rows (nnzL = entries of its lower triangle).
func comboBytes(c sf.Combination, nnz, nnzL, n int) int64 {
	vecs := int64(4 * n * elemBytes) // each of the two loops reads one vector and writes one
	switch c {
	case sf.TrsvTrsv:
		return 2*int64(nnzL)*entryBytes + vecs
	case sf.TrsvMv:
		return int64(nnzL+nnz)*entryBytes + vecs
	default: // MvMv
		return 2*int64(nnz)*entryBytes + vecs
	}
}

// pcgBytes is the computed traffic of one fused PCG iteration: A once, the
// IC0 factor twice, and 19 vector passes (SpMV 2, p·q 2, two axpys 3 each,
// two solves 2 each, the dual dot 2, the direction update 3).
func pcgBytes(nnz, nnzL, n int) int64 {
	return int64(nnz+2*nnzL)*entryBytes + int64(19*n*elemBytes)
}

func lowerNNZ(a *sparse.CSR) int {
	c := 0
	for r := 0; r < a.Rows; r++ {
		for p := a.P[r]; p < a.P[r+1]; p++ {
			if a.I[p] <= r {
				c++
			}
		}
	}
	return c
}
