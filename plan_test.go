package sparsefusion

import (
	"sync"
	"testing"
	"time"
)

// The binding tests pin the plan/runner split: one dispatch plan per cached
// artifact, shared by pointer, and bound by every Operation and Session in
// time and allocations independent of its unit count. The interleaved
// MV-MV program of the 110x110 2D Laplacian has ~23.5k dispatch units (no
// pair body coalesces SpMV CSR into SpMV CSR); TRSV-MV on the same matrix
// has a couple.

// lap2dOp builds combination c over the 110x110 2D Laplacian at 2 threads,
// the serve-warm configuration.
func lap2dOp(t *testing.T, c Combination, sc *ScheduleCache) *Operation {
	t.Helper()
	op, err := NewOperation(c, Laplacian2D(110), Options{Threads: 2, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if op.plan == nil || op.runner == nil || op.runner.Plan() != op.plan {
		t.Fatalf("%v: operation runner does not run the artifact plan", c)
	}
	return op
}

func TestNewSessionAllocsIndependentOfUnits(t *testing.T) {
	allocs := map[Combination]float64{}
	for _, c := range []Combination{MvMv, TrsvMv} {
		op := lap2dOp(t, c, nil)
		switch units := op.plan.NumUnits(); {
		case c == MvMv && units < 20000, c == TrsvMv && units > 8:
			t.Fatalf("fixture drifted: %v has %d dispatch units", c, units)
		}
		allocs[c] = testing.AllocsPerRun(5, func() {
			s, err := op.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			if s.Mode() != ModePacked || s.runner.Plan() != op.plan {
				t.Fatalf("%v: session on %s, or on a private plan", c, s.Mode())
			}
		})
	}
	t.Logf("NewSession allocations: MV-MV %v, TRSV-MV %v", allocs[MvMv], allocs[TrsvMv])
	// The two combinations clone slightly different vector sets; binding
	// itself must add nothing that scales with the 23.5k MV-MV units.
	if d := allocs[MvMv] - allocs[TrsvMv]; d > 4 || d < -4 {
		t.Fatalf("NewSession allocates %v times for MV-MV, %v for TRSV-MV: binding scales with units", allocs[MvMv], allocs[TrsvMv])
	}
}

// TestPlanSharedAcrossOperationSessionsAndValueChurn: the cached operation,
// its sessions, a cache-hit operation and a value-churn operation (same
// pattern, new values, so a private re-layout) all run one *exec.Plan.
func TestPlanSharedAcrossOperationSessionsAndValueChurn(t *testing.T) {
	sc := NewScheduleCache(CacheConfig{})
	op := lap2dOp(t, MvMv, sc)
	hit := lap2dOp(t, MvMv, sc)

	m := Laplacian2D(110)
	scaled := *m.csr
	scaled.X = make([]float64, len(m.csr.X))
	for i, v := range m.csr.X {
		scaled.X[i] = 2 * v
	}
	churn, err := NewOperation(MvMv, &Matrix{&scaled}, Options{Threads: 2, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if churn.layout == nil || churn.layout == op.layout {
		t.Fatal("value-churn operation did not re-lay out privately")
	}
	states := []*execState{&hit.execState, &churn.execState}
	for i := 0; i < 2; i++ {
		s, err := op.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, &s.execState)
	}
	for i, e := range states {
		if e.plan != op.plan || e.runner.Plan() != op.plan {
			t.Fatalf("state %d runs its own plan", i)
		}
	}
	if st := sc.Stats(); st.Misses != 1 || st.ResidentBytes <= 0 {
		t.Fatalf("cache stats %+v: want one inspection and resident bytes", st)
	}
}

// TestSessionsShareAPlanConcurrently: two sessions over one shared plan run
// concurrently (each on its own worker set) and agree bit for bit, run after
// run. Under -race this proves the plan is read-only during execution.
func TestSessionsShareAPlanConcurrently(t *testing.T) {
	op := lap2dOp(t, MvMv, NewScheduleCache(CacheConfig{}))
	x := make([]float64, op.inst.Kernels[0].Iterations())
	for i := range x {
		x[i] = float64(i%11) - 4.5
	}
	var ss [2]*Session
	for i := range ss {
		s, err := op.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetInput(x); err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	const runs = 4
	var outs [2][runs][]float64
	err := watchdog(t, 60*time.Second, func() error {
		var wg sync.WaitGroup
		errs := make(chan error, len(ss))
		for i, s := range ss {
			wg.Add(1)
			go func(i int, s *Session) {
				defer wg.Done()
				for r := 0; r < runs; r++ {
					if _, err := s.Run(); err != nil {
						errs <- err
						return
					}
					outs[i][r] = s.Output()
				}
			}(i, s)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		for j, v := range outs[0][r] {
			if v != outs[1][r][j] || v != outs[0][0][j] {
				t.Fatalf("run %d: concurrent sessions over one plan disagree at %d", r, j)
			}
		}
	}
}

// TestFusedCGSharesCachedPlan: FusedCG binds the cached artifact's plan like
// an Operation does, so two solvers of one fingerprint share it.
func TestFusedCGSharesCachedPlan(t *testing.T) {
	sc := NewScheduleCache(CacheConfig{})
	var fs [2]*FusedCG
	for i := range fs {
		f, err := NewFusedCG(Laplacian2D(20), FusedCGOptions{Options: Options{Threads: 2, Cache: sc}, Precondition: true})
		if err != nil {
			t.Fatal(err)
		}
		if f.plan == nil || f.runner == nil || f.runner.Plan() != f.plan {
			t.Fatalf("solver %d does not run the artifact plan", i)
		}
		fs[i] = f
	}
	if fs[0].plan != fs[1].plan {
		t.Fatal("two FusedCG solvers of one fingerprint hold different plans")
	}
}
