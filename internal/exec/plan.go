package exec

import (
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// This file is the shared half of the compiled executor: a Plan is the
// dispatch table of one core.Program, built once per cached artifact and
// shared by pointer with every Runner bound to that program — the
// Operation, each of its Sessions, value-churn operations of the same
// fingerprint, and FusedCG. A plan unit holds only its iteration range,
// first program segment and loop tags; the bodies that run it (interface
// values and closures) live per loop or per loop pair in the Runner, and the
// packed stream cursors are read at run time from Program.SegIter and
// relayout.Layout.SegEnt. Binding a Runner is therefore O(loops + loop
// pairs) and allocates nothing per segment.

// unit is one dispatch unit of a compiled w-partition: the iteration range
// Iters[lo:hi] starting at program segment g0. A pair unit coalesces an
// alternating two-loop span (loops SegLoop[g0] and SegLoop[g0+1]) and runs
// through the Runner's fused body for Plan.pairs[pair-1]; any other unit is
// one single-loop segment, of loop `loop`. No interface, func or pointer field:
// sixteen bytes, shared by every runner of the plan.
type unit struct {
	lo, hi int32
	g0     int32
	loop   uint8 // loop of a single-loop unit
	pair   uint8 // 1 + index into Plan.pairs for a pair unit, 0 otherwise
}

// pairRunLimit is the average iterations-per-segment below which an
// alternating two-loop span dispatches through a fused pair body instead of
// one batch call per tiny segment.
const pairRunLimit = 8

// Plan is the immutable dispatch plan of one compiled program. Build it once
// with NewPlan and share it: Bind derives any number of Runners from it, each
// holding only per-loop state.
type Plan struct {
	prog  *core.Program
	units []unit
	wUnit []int32 // units[wUnit[w]:wUnit[w+1]] belong to w-partition w
	// pairs lists the (first, second) loop pairs of the pair units, in
	// first-use order; a pair unit's pair field indexes it (plus one).
	pairs [][2]uint8
	// single marks the loops that have single-loop units, the loops whose
	// kernels need their own batch or packed body.
	single []bool
}

// NewPlan builds the dispatch plan of prog for the kernel chain ks, choosing
// the dispatch units: a maximal span alternating between two loops is
// coalesced into one pair unit when its segments average fewer than
// pairRunLimit iterations and ks has a fused pair body for the two loops;
// every other segment is its own unit. The plan stays valid for any kernel
// chain of the same types (Bind checks the pair bodies).
func NewPlan(ks []kernels.Kernel, prog *core.Program) *Plan {
	// pairID memoizes the coalescing verdict per loop pair: 1 + index into
	// pairs when ks fuse the pair, -1 when they do not, 0 when not yet asked.
	var pairID [kernels.MaxLoops][kernels.MaxLoops]int16
	p := &Plan{
		prog:   prog,
		wUnit:  make([]int32, 1, prog.NumWPartitions()+1),
		single: make([]bool, prog.NumLoops),
	}
	pairFor := func(a, b uint8) uint8 {
		id := &pairID[a][b]
		if *id == 0 {
			*id = -1
			if fn, _ := kernels.FusePair(ks[a], ks[b], int(a), int(b)); fn != nil {
				p.pairs = append(p.pairs, [2]uint8{a, b})
				*id = int16(len(p.pairs))
			}
		}
		if *id < 0 {
			return 0
		}
		return uint8(*id)
	}
	// units is sized for the worst case, one unit per segment, and trimmed
	// below when spans coalesced.
	units := make([]unit, 0, prog.NumSegments())
	for w := 0; w < prog.NumWPartitions(); w++ {
		g1 := int(prog.WSeg[w+1])
		// end is the exclusive end of the current maximal span alternating
		// between two loops, scanned once per span so planning stays linear
		// in segments even when no segment of a long span coalesces.
		// Consecutive segments of one w-partition always differ in loop, so
		// every g with g+1 < end pairs the span's two loops and would scan
		// to the same end.
		end := 0
		for g := int(prog.WSeg[w]); g < g1; {
			// Coalesce a maximal span alternating between two loops into one
			// pair unit when its segments are short enough that per-batch
			// dispatch would dominate.
			if g+1 < g1 {
				l1, l2 := prog.SegLoop[g], prog.SegLoop[g+1]
				if g+1 >= end {
					end = g + 2
					for end < g1 && (prog.SegLoop[end] == l1 || prog.SegLoop[end] == l2) {
						end++
					}
				}
				iters := int(prog.SegOff[end] - prog.SegOff[g])
				if iters < (end-g)*pairRunLimit {
					if id := pairFor(l1, l2); id != 0 {
						units = append(units, unit{lo: prog.SegOff[g], hi: prog.SegOff[end], g0: int32(g), pair: id})
						g = end
						continue
					}
				}
			}
			l := prog.SegLoop[g]
			p.single[l] = true
			units = append(units, unit{lo: prog.SegOff[g], hi: prog.SegOff[g+1], g0: int32(g), loop: l})
			g++
		}
		p.wUnit = append(p.wUnit, int32(len(units)))
	}
	if len(units) < cap(units) {
		units = append([]unit(nil), units...)
	}
	p.units = units
	return p
}

// NumUnits returns the number of dispatch units.
func (p *Plan) NumUnits() int { return len(p.units) }

// Bytes returns the plan's resident footprint in bytes (its own tables, not
// the program it indexes).
func (p *Plan) Bytes() int64 {
	return int64(len(p.units))*16 + 4*int64(len(p.wUnit)) + 2*int64(len(p.pairs)) + int64(len(p.single))
}

// Bind derives a Runner executing the plan with the kernel chain ks, which
// must have the loop types the plan was built for. It fails when ks has no
// fused pair body for a loop pair the plan coalesced; the plan is never
// modified, so any number of runners may bind it concurrently.
func (p *Plan) Bind(ks []kernels.Kernel) (*Runner, error) {
	if len(ks) < p.prog.NumLoops {
		return nil, fmt.Errorf("exec: plan for %d loops bound to %d kernels", p.prog.NumLoops, len(ks))
	}
	r := &Runner{
		plan:  p,
		ks:    ks,
		batch: make([]kernels.BatchRunner, len(ks)),
		pairs: make([]kernels.PairRunner, len(p.pairs)),
	}
	for i, k := range ks {
		if b, ok := k.(kernels.BatchRunner); ok {
			r.batch[i] = b
		}
	}
	for i, lp := range p.pairs {
		a, b := lp[0], lp[1]
		fn, _ := kernels.FusePair(ks[a], ks[b], int(a), int(b))
		if fn == nil {
			return nil, fmt.Errorf("exec: no pair body for %s+%s", ks[a].Name(), ks[b].Name())
		}
		r.pairs[i] = fn
	}
	return r, nil
}
