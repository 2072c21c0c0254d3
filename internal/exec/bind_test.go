package exec

import (
	"math/rand"
	"testing"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// oracleSeg is one dispatch unit as the original scan bound it: the range,
// the first program segment and the body it chose.
type oracleSeg struct {
	lo, hi, g0 int32
	loop       uint8
	pair       bool
	batch      kernels.BatchRunner
	k          kernels.Kernel
}

// quadraticSegs is the original NewRunner span scan, kept as the oracle the
// linear plan is checked against. It rescans the alternating span from
// every segment it does not coalesce, so it is quadratic in span length.
func quadraticSegs(ks []kernels.Kernel, prog *core.Program) ([]oracleSeg, []int32) {
	batch := make([]kernels.BatchRunner, len(ks))
	for i, k := range ks {
		if b, ok := k.(kernels.BatchRunner); ok {
			batch[i] = b
		}
	}
	var segs []oracleSeg
	wSeg := []int32{0}
	for w := 0; w < prog.NumWPartitions(); w++ {
		g1 := int(prog.WSeg[w+1])
		for g := int(prog.WSeg[w]); g < g1; {
			if g+1 < g1 {
				l1, l2 := prog.SegLoop[g], prog.SegLoop[g+1]
				end := g + 2
				for end < g1 && (prog.SegLoop[end] == l1 || prog.SegLoop[end] == l2) {
					end++
				}
				iters := int(prog.SegOff[end] - prog.SegOff[g])
				if iters < (end-g)*pairRunLimit {
					if fn, _ := kernels.FusePair(ks[l1], ks[l2], int(l1), int(l2)); fn != nil {
						segs = append(segs, oracleSeg{lo: prog.SegOff[g], hi: prog.SegOff[end], pair: true, g0: int32(g)})
						g = end
						continue
					}
				}
			}
			s := oracleSeg{lo: prog.SegOff[g], hi: prog.SegOff[g+1], loop: prog.SegLoop[g], g0: int32(g)}
			if b := batch[s.loop]; b != nil {
				s.batch = b
			} else {
				s.k = ks[s.loop]
			}
			segs = append(segs, s)
			g++
		}
		wSeg = append(wSeg, int32(len(segs)))
	}
	return segs, wSeg
}

// assertSameDispatch compares NewRunner's plan units with the oracle's:
// range, first program segment, loop, body kind (pair, batch or
// per-iteration, with the same batch or kernel bound) and, for pair units,
// the span's two loops, plus the per-w-partition split.
func assertSameDispatch(t *testing.T, label string, ks []kernels.Kernel, prog *core.Program) *Runner {
	t.Helper()
	r := NewRunner(ks, prog)
	p := r.Plan()
	want, wantW := quadraticSegs(ks, prog)
	if len(p.units) != len(want) {
		t.Fatalf("%s: %d dispatch units, oracle %d", label, len(p.units), len(want))
	}
	for i, got := range p.units {
		w := want[i]
		same := got.lo == w.lo && got.hi == w.hi && got.g0 == w.g0 && (got.pair != 0) == w.pair
		if same && w.pair {
			same = p.pairs[got.pair-1] == [2]uint8{prog.SegLoop[w.g0], prog.SegLoop[w.g0+1]}
		}
		if same && !w.pair {
			same = got.loop == w.loop && r.batch[got.loop] == w.batch && (w.batch != nil || r.ks[got.loop] == w.k)
		}
		if !same {
			t.Fatalf("%s: unit %d = {lo %d hi %d loop %d g0 %d pair %d}, oracle {lo %d hi %d loop %d g0 %d pair %v}",
				label, i, got.lo, got.hi, got.loop, got.g0, got.pair, w.lo, w.hi, w.loop, w.g0, w.pair)
		}
	}
	for w := range wantW {
		if p.wUnit[w] != wantW[w] {
			t.Fatalf("%s: wUnit[%d] = %d, oracle %d", label, w, p.wUnit[w], wantW[w])
		}
	}
	return r
}

// bindKernels is a four-loop chain covering every dispatch body: loops 0 and
// 1 (TRSV, TRSV) have a fused pair body in both orders, loop 2 (SpMV CSR)
// pairs with nothing, and loop 3 has no batch body at all.
func bindKernels() []kernels.Kernel {
	a := sparse.Must(sparse.RandomSPD(64, 3, 5))
	l := a.Lower()
	x, y, z := sparse.RandomVec(64, 6), make([]float64, 64), make([]float64, 64)
	return []kernels.Kernel{
		kernels.NewSpTRSVCSR(l, x, y),
		kernels.NewSpTRSVCSR(l, y, z),
		kernels.NewSpMVCSR(a, z, x),
		&stealProbe{n: 64, body: func(int) {}},
	}
}

// syntheticProgram builds a single-s-partition program whose w-partitions
// are runs of segments with the given loops (consecutive ones distinct, as
// the builder derives segments from loop changes), each segLen() iterations
// long.
func syntheticProgram(t testing.TB, numLoops int, wparts [][]uint8, segLen func() int) *core.Program {
	t.Helper()
	b, err := core.NewProgramBuilder(numLoops)
	if err != nil {
		t.Fatal(err)
	}
	b.StartS()
	for _, loops := range wparts {
		if err := b.StartW(); err != nil {
			t.Fatal(err)
		}
		for _, l := range loops {
			for j, n := 0, segLen(); j < n; j++ {
				if err := b.Add(int(l), j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Finish()
}

func fixedLen(n int) func() int { return func() int { return n } }

func randomLen(rng *rand.Rand, max int) func() int { return func() int { return 1 + rng.Intn(max) } }

// alternating returns n segment loops cycling through loops.
func alternating(n int, loops ...uint8) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = loops[i%len(loops)]
	}
	return s
}

func TestNewRunnerMatchesQuadraticScanTable(t *testing.T) {
	ks := bindKernels()
	for _, tc := range []struct {
		name   string
		wparts [][]uint8
		segLen func() int
	}{
		// Alternating spans whose pair has no fused body: every segment is
		// its own batch unit.
		{"no-pair-body", [][]uint8{alternating(300, 0, 2), alternating(41, 2, 1)}, fixedLen(1)},
		// Average segment exactly pairRunLimit: iters == (end-g)*pairRunLimit
		// is not below the limit, so nothing coalesces although the pair body
		// exists.
		{"long-segments", [][]uint8{alternating(50, 0, 1)}, fixedLen(pairRunLimit)},
		// Short segments with a pair body: one coalesced unit per span.
		{"coalesced", [][]uint8{alternating(200, 1, 0)}, fixedLen(1)},
		// Spans changing pair mid-partition, sharing one segment at the seam,
		// including the per-iteration fallback loop.
		{"seams", [][]uint8{
			append(append(alternating(9, 0, 1), alternating(9, 2, 0)...), alternating(9, 3, 1)...),
			{0, 1, 0, 2, 0, 2, 3, 2, 3, 1, 0, 1},
			{3}, {0, 1}, {2},
		}, randomLen(rand.New(rand.NewSource(1)), 3)},
	} {
		assertSameDispatch(t, tc.name, ks, syntheticProgram(t, len(ks), tc.wparts, tc.segLen))
	}
}

func TestNewRunnerMatchesQuadraticScanRandom(t *testing.T) {
	ks := bindKernels()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// A small loop alphabet per trial keeps long alternating spans
		// likely; segment lengths straddle pairRunLimit.
		alphabet := []uint8{0, 1, 2, 3}
		rng.Shuffle(len(alphabet), func(i, j int) { alphabet[i], alphabet[j] = alphabet[j], alphabet[i] })
		alphabet = alphabet[:2+rng.Intn(3)]
		wparts := make([][]uint8, 1+rng.Intn(4))
		for w := range wparts {
			n := 1 + rng.Intn(80)
			loops := make([]uint8, 0, n)
			for len(loops) < n {
				l := alphabet[rng.Intn(len(alphabet))]
				if len(loops) > 0 && loops[len(loops)-1] == l {
					continue
				}
				// Mostly extend the current two-loop alternation.
				if len(loops) > 1 && rng.Intn(8) != 0 {
					l = loops[len(loops)-2]
				}
				loops = append(loops, l)
			}
			wparts[w] = loops
		}
		prog := syntheticProgram(t, len(ks), wparts, randomLen(rng, 1+rng.Intn(2*pairRunLimit)))
		assertSameDispatch(t, "random", ks, prog)
	}
}

// lap2dMvMv builds the interleaved MV-MV program of the 110x110 2D Laplacian
// at 2 threads: SpMV CSR -> SpMV CSR has no fused pair body, and its
// w-partitions alternate between the two loops in thousands of segments.
func lap2dMvMv(t testing.TB) ([]kernels.Kernel, *core.Program) {
	t.Helper()
	a, err := sparse.Laplacian2D(110)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	x, y, z := sparse.RandomVec(n, 1), make([]float64, n), make([]float64, n)
	k1 := kernels.NewSpMVCSR(a, x, y)
	k2 := kernels.NewSpMVCSR(a, y, z)
	ks := []kernels.Kernel{k1, k2}
	loops := &core.Loops{G: []*dag.Graph{k1.DAG(), k2.DAG()}, F: []*sparse.CSR{core.FPattern(a)}}
	sched, err := core.ICO(loops, core.Params{Threads: 2, ReuseRatio: core.ReuseRatioChain(ks)})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileSchedule(sched, len(ks))
	if err != nil {
		t.Fatal(err)
	}
	return ks, prog
}

func TestNewRunnerMatchesQuadraticScanMvMv(t *testing.T) {
	ks, prog := lap2dMvMv(t)
	if !prog.Interleaved || prog.NumSegments() < 10000 {
		t.Fatalf("fixture drifted: interleaved %v, %d segments", prog.Interleaved, prog.NumSegments())
	}
	r := assertSameDispatch(t, "lap2d:110 mv-mv", ks, prog)
	if r.Plan().NumUnits() != prog.NumSegments() {
		t.Fatalf("%d dispatch units for %d segments: MV-MV has no pair body to coalesce", r.Plan().NumUnits(), prog.NumSegments())
	}
}

// TestNewRunnerLinearInSegments binds a single w-partition of 200,000
// one-iteration segments alternating between two loops with no pair body —
// the quadratic scan's worst case, which takes minutes.
func TestNewRunnerLinearInSegments(t *testing.T) {
	ks := bindKernels()
	prog := syntheticProgram(t, len(ks), [][]uint8{alternating(200000, 0, 2)}, fixedLen(1))
	t0 := time.Now()
	r := NewRunner(ks, prog)
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("binding 200k segments took %v, want < 1s", d)
	}
	if r.Plan().NumUnits() != prog.NumSegments() {
		t.Fatalf("%d dispatch units for %d segments", r.Plan().NumUnits(), prog.NumSegments())
	}
}

// TestAttachLayoutFusesOncePerLoopPair: binding a layout builds one packed
// pair closure per loop pair, so its allocations do not grow with the number
// of coalesced pair spans.
func TestAttachLayoutFusesOncePerLoopPair(t *testing.T) {
	loops, ks, _ := fusedTrsvTrsv(2000, 7)
	p := icoParams()
	p.ReuseRatio = 1.5
	sched, err := core.ICO(loops, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileFused(ks, sched)
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, u := range r.Plan().units {
		if u.pair != 0 {
			spans++
		}
	}
	if spans < 20 {
		t.Fatalf("fixture drifted: only %d pair spans", spans)
	}
	lay, err := relayout.Build(r.Program(), ks)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := r.AttachLayout(lay); err != nil {
			t.Fatal(err)
		}
	})
	// The per-loop and per-loop-pair body slices and one closure per
	// loop-pair order (two at most for a two-loop chain); fusing per span
	// allocated one closure per span.
	if allocs > 4 {
		t.Fatalf("AttachLayout allocated %v times for %d pair spans, want <= 4", allocs, spans)
	}
}

// BenchmarkNewRunnerInterleaved binds the lap2d:110 MV-MV program at 2
// threads: 21k+ segments in long alternating spans with no pair body.
func BenchmarkNewRunnerInterleaved(b *testing.B) {
	ks, prog := lap2dMvMv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRunner = NewRunner(ks, prog)
	}
}

var benchRunner *Runner
