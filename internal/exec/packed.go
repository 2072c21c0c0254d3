package exec

import (
	"fmt"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
)

// This file is the packed executor path: a Runner whose per-loop bodies have
// been bound to the schedule-order operand streams of a relayout.Layout; each
// plan unit finds its stream cursors in Layout.SegEnt and Program.SegIter.
// The hot loop then reads compact int32 indices and float64 values with a
// single advancing cursor per stream instead of pointer-chasing P[i] into
// matrix-order arrays. The compiled-unpacked path (runW) and RunSerial remain
// as the references the packed path is checked against.

// AttachLayout binds a schedule-order re-layout to the runner and switches
// Run to the packed path. The layout must have been built for this runner's
// program; every kernel with single-loop units must support packed batch
// execution, and every coalesced loop pair must have a packed pair
// specialization. Binding is per loop and per loop pair, never per unit:
// each unit's stream cursors are read at run time from Layout.SegEnt and
// Program.SegIter. On error the runner is left unchanged (still running the
// compiled-unpacked path).
func (r *Runner) AttachLayout(lay *relayout.Layout) error {
	p := r.plan
	if lay.Program() != p.prog {
		return fmt.Errorf("exec: layout was built for a different program")
	}
	packed := make([]kernels.PackedRunner, len(p.single))
	for l, used := range p.single {
		if !used {
			continue
		}
		pk, ok := r.ks[l].(kernels.PackedRunner)
		if !ok {
			return fmt.Errorf("exec: kernel %s does not support packed execution", r.ks[l].Name())
		}
		packed[l] = pk
	}
	pairs := make([]kernels.PackedPairRunner, len(p.pairs))
	for i, lp := range p.pairs {
		a, b := lp[0], lp[1]
		fn, ok := kernels.FusePackedPair(r.ks[a], r.ks[b], int(a), int(b))
		if !ok {
			return fmt.Errorf("exec: no packed pair body for %s+%s", r.ks[a].Name(), r.ks[b].Name())
		}
		pairs[i] = fn
	}
	r.lay, r.packed, r.packedPairs = lay, packed, pairs
	return nil
}

// Packed reports whether a layout is attached (Run takes the packed path).
func (r *Runner) Packed() bool { return r.lay != nil }

// DetachLayout drops the stream bindings, returning Run to the
// compiled-unpacked path.
func (r *Runner) DetachLayout() { r.lay, r.packed, r.packedPairs = nil, nil, nil }

// runWPacked executes one w-partition against the packed streams, one
// dispatch per unit. A pair unit coalesces consecutive program segments
// alternating between two loops; each loop's entries are contiguous in its
// own stream across the whole span (streams are laid out in global segment
// order and the other loop's entries land in the other stream), so the
// cursors of the span's first two segments cover it.
func (r *Runner) runWPacked(w int) {
	p, lay := r.plan, r.lay
	prog := p.prog
	for _, u := range p.units[p.wUnit[w]:p.wUnit[w+1]] {
		it := prog.Iters[u.lo:u.hi]
		g := u.g0
		if u.pair != 0 {
			lp := p.pairs[u.pair-1]
			r.packedPairs[u.pair-1](it, lay.Streams[lp[0]], lay.Streams[lp[1]],
				int(lay.SegEnt[g]), int(prog.SegIter[g]), int(lay.SegEnt[g+1]), int(prog.SegIter[g+1]))
		} else {
			r.packed[u.loop].RunManyPacked(it, lay.Streams[u.loop], int(lay.SegEnt[g]), int(prog.SegIter[g]))
		}
	}
}

// CompileFusedPacked compiles an ICO schedule for the fused chain ks and
// attaches a schedule-order re-layout: the full packed pipeline in one call.
// The layout is returned alongside the runner so callers can report its
// build cost and footprint. It fails when the schedule exceeds the packed
// representation or when the chain does not support the packed layout
// (kernels without stream support, or a kernel overwriting another's packed
// source mid-run); callers fall back to CompileFused then.
func CompileFusedPacked(ks []kernels.Kernel, sched *core.Schedule) (*Runner, *relayout.Layout, error) {
	r, err := CompileFused(ks, sched)
	if err != nil {
		return nil, nil, err
	}
	lay, err := relayout.Build(r.Program(), ks)
	if err != nil {
		return nil, nil, err
	}
	if err := r.AttachLayout(lay); err != nil {
		return nil, nil, err
	}
	return r, lay, nil
}

// CompileFusedPackedFirstTouch is CompileFusedPacked with the runner
// configured for work-stealing (cfg.Steal is forced on) and the layout built
// first-touch: each packed stream page is written by the executor slot that
// owns it under the runner's seeded assignment for a pool of the given worker
// count, so under a first-touch NUMA policy the pages land on the node that
// will stream them. The layout contents are byte-identical to the
// single-goroutine build; only page placement differs. Callers that later run
// at a different width keep correctness — placement is best-effort, exactly
// like stealing itself.
func CompileFusedPackedFirstTouch(ks []kernels.Kernel, sched *core.Schedule, cfg Config, workers int) (*Runner, *relayout.Layout, error) {
	r, err := CompileFused(ks, sched)
	if err != nil {
		return nil, nil, err
	}
	cfg.Steal = true
	r.Configure(cfg)
	lay, err := relayout.BuildFirstTouch(r.Program(), ks, r.Assignment(workers))
	if err != nil {
		return nil, nil, err
	}
	if err := r.AttachLayout(lay); err != nil {
		return nil, nil, err
	}
	return r, lay, nil
}
