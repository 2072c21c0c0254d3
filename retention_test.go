package sparsefusion

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

// The retention tests pin what a served state keeps: the compiled program,
// plan and packed layout, but none of the inspection inputs — no DAG, no F
// matrix, and (while a program exists) no nested schedule. They walk the
// object graph reachable from each state and cache entry; closures are
// opaque to reflection, which is fine: the F recipes they hold capture only
// the kernels' own matrices.

// inspectionInputs lists what the object graph under root reaches of the
// inspection inputs: DAGs, fusion inputs, nested schedules, and dependency
// matrices (pattern-only CSRs: the F builders allocate no values).
func inspectionInputs(root any) []string {
	var found []string
	seen := map[[2]uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			k := [2]uintptr{v.Pointer(), reflect.ValueOf(v.Type()).Pointer()}
			if seen[k] {
				return
			}
			seen[k] = true
			switch v.Type() {
			case reflect.TypeOf((*dag.Graph)(nil)), reflect.TypeOf((*core.Loops)(nil)), reflect.TypeOf((*core.Schedule)(nil)):
				found = append(found, path+" "+v.Type().String())
				return
			case reflect.TypeOf((*sparse.CSR)(nil)):
				if c := v.Elem(); c.FieldByName("X").Len() == 0 && c.FieldByName("I").Len() > 0 {
					found = append(found, path+" pattern-only *sparse.CSR")
					return
				}
			}
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), path+"[]")
				}
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Value(), path+"{}")
			}
		}
	}
	walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
	return found
}

func requireLean(t *testing.T, name string, root any) {
	t.Helper()
	if found := inspectionInputs(root); len(found) > 0 {
		t.Fatalf("%s keeps inspection inputs: %v", name, found)
	}
}

// TestStatesAndEntriesKeepNoInspectionInputs: after a cache miss, a cache
// hit, NewSession and NewFusedCG, no state or cache entry reaches a DAG, an
// F matrix or a nested schedule, and no hit or session builds a fusion input.
func TestStatesAndEntriesKeepNoInspectionInputs(t *testing.T) {
	sc := NewScheduleCache(CacheConfig{})
	m := Laplacian2D(40)
	for _, c := range []Combination{TrsvTrsv, TrsvMv, MvMv, Ic0Trsv} {
		before := combos.LoopBuilds()
		miss, err := NewOperation(c, m, Options{Threads: 2, Cache: sc})
		if err != nil {
			t.Fatal(err)
		}
		if got := combos.LoopBuilds() - before; got != 1 {
			t.Fatalf("%v: a cache miss built %d fusion inputs, want 1", c, got)
		}
		before = combos.LoopBuilds()
		hit, err := NewOperation(c, m, Options{Threads: 2, Cache: sc})
		if err != nil {
			t.Fatal(err)
		}
		states := map[string]any{"miss " + c.String(): miss, "hit " + c.String(): hit}
		if c != Ic0Trsv {
			s, err := hit.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			states["session "+c.String()] = s
		}
		if got := combos.LoopBuilds() - before; got != 0 {
			t.Fatalf("%v: a cache hit and a session built %d fusion inputs, want 0", c, got)
		}
		entry, ok := sc.c.Get(miss.fp)
		if !ok || entry.Program == nil || entry.Schedule != nil {
			t.Fatalf("%v: cache entry %v keeps program %v, schedule %v", c, ok, entry.Program != nil, entry.Schedule != nil)
		}
		states["entry "+c.String()] = entry
		for name, st := range states {
			requireLean(t, name, st)
		}
		for _, op := range []*Operation{miss, hit} {
			if _, err := op.Run(); err != nil {
				t.Fatal(err)
			}
			requireLean(t, "run "+c.String(), op)
		}
	}

	opts := FusedCGOptions{Options: Options{Threads: 2, Cache: sc}, Precondition: true}
	before := combos.LoopBuilds()
	f, err := NewFusedCG(Laplacian3D(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := combos.LoopBuilds() - before; got != 1 {
		t.Fatalf("a FusedCG cache miss built %d fusion inputs, want 1", got)
	}
	before = combos.LoopBuilds()
	fHit, err := NewFusedCG(Laplacian3D(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := combos.LoopBuilds() - before; got != 0 {
		t.Fatalf("a FusedCG cache hit built %d fusion inputs, want 0", got)
	}
	entry, _ := sc.c.Get(f.fp)
	for name, st := range map[string]any{"fusedcg": f, "fusedcg hit": fHit, "fusedcg entry": entry} {
		requireLean(t, name, st)
	}
	if _, _, _, err := fHit.Solve(make([]float64, 8*8*8)); err != nil {
		t.Fatal(err)
	}

	// The walker does see what it looks for: an instance from Build keeps
	// its fusion input.
	inst, err := combos.Build(combos.TrsvTrsv, m.csr)
	if err != nil {
		t.Fatal(err)
	}
	if found := inspectionInputs(inst); len(found) == 0 {
		t.Fatal("walker found no DAG or F under a materialized instance")
	}
}

// TestLadderRebuildsFusionInputAfterCorruptProgram: with the loops gone, a
// run-time fault rebuilds G and F to re-validate. A corrupt program no longer
// decompiles to a valid schedule, so the state re-inspects, keeps that
// schedule for SaveSchedule and goes straight to the serial rung — here for
// an operation bound through the cache.
func TestLadderRebuildsFusionInputAfterCorruptProgram(t *testing.T) {
	m := RandomSPD(300, 4, 9)
	for _, th := range []int{1, 2, 4} {
		sc := NewScheduleCache(CacheConfig{})
		op, err := NewOperation(TrsvTrsv, m, Options{Threads: th, Cache: sc})
		if err != nil {
			t.Fatal(err)
		}
		requireCorruptProgramLadder(t, fmt.Sprintf("threads=%d", th), op, TrsvTrsv, m)
	}
}

// TestLadderKeepsNoScheduleOnPackedFault: a fault confined to the packed
// layout leaves the program valid, so re-validation decompiles it, finds it
// sound, and the state demotes to the compiled rung still holding no nested
// schedule.
func TestLadderKeepsNoScheduleOnPackedFault(t *testing.T) {
	op, err := NewOperation(TrsvTrsv, RandomSPD(300, 4, 9), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for g := range op.layout.SegEnt {
		op.layout.SegEnt[g] = 1 << 30
	}
	before := combos.LoopBuilds()
	if err := watchdog(t, 10*time.Second, func() error { _, err := op.Run(); return err }); err != nil {
		t.Fatalf("ladder did not absorb the fault: %v", err)
	}
	h := op.Health()
	if h.Mode != ModeCompiled || len(h.Demotions) != 1 || combos.LoopBuilds()-before != 1 || op.sched != nil {
		t.Fatalf("health %+v, %d fusion-input builds, nested schedule kept %v: want one packed->compiled demotion, one build, none kept",
			h, combos.LoopBuilds()-before, op.sched != nil)
	}
}
