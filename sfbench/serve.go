package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/sparse"
)

// serve-warm and serve-churn: an open loop at a fixed offered rate into one
// Server. Requests are warm session runs over a hot set of inspected
// operations; serve-churn mixes in new Operations on known patterns with new
// values and never-seen patterns. README.md says what each one loads.
const (
	warmRate  = 300.0 // offered requests per second
	churnRate = 100.0
	// Shares of serve-churn requests. The cold share stays well away from
	// 1%, where p99 would sit on the boundary between warm and cold
	// requests and jump between them from run to run.
	churnColdShare  = 0.03
	churnValueShare = 0.05
	// clientWorkers bounds the requests the client has in flight.
	clientWorkers = 8
	// sessionsPerOp is the size of each hot operation's session free-list: a
	// request takes a session and returns it. Two are rarely both busy at
	// these rates, and each costs set-up time (an MV-MV session re-lays its
	// packed streams out).
	sessionsPerOp = 2
	warmInputs    = 4
	valueVariants = 2 // value variants per hot pattern
	// The cache holds the 12 hot entries plus spare slots that serve-churn's
	// cold patterns (60 in a 20 s run) outnumber, so entries are evicted.
	// Eviction is LRU and hot entries are touched only by value-churn
	// requests, so the spare slots are sized for a hot entry to be evicted
	// only rarely: each eviction re-inspects a 12k-row pattern (up to
	// 250 ms), and a handful more or fewer per run would swing p99.
	warmCacheEntries  = 64
	churnCacheEntries = 40
	maxQueue          = 256
	requestTimeout    = 5 * time.Second
	// Goodput latency limits, measured from the due time.
	warmLimit  = 20 * time.Millisecond
	churnLimit = 1 * time.Second
)

var servedCombos = []sf.Combination{sf.TrsvTrsv, sf.TrsvMv, sf.MvMv}

var allCombos = []sf.Combination{sf.TrsvTrsv, sf.DscalIlu0, sf.TrsvMv, sf.Ic0Trsv, sf.Ilu0Trsv, sf.DscalIc0, sf.MvMv}

type pattern struct {
	name string
	a    *sparse.CSR
	m    *sf.Matrix
}

type hotOp struct {
	pat      int
	combo    sf.Combination
	op       *sf.Operation
	sessions chan *sf.Session // free-list of sessionsPerOp sessions
	want     [][]float64      // oracle output per input
}

type serveEnv struct {
	pats    []pattern
	inputs  [][][]float64 // per pattern, warmInputs seeded vectors
	cache   *sf.ScheduleCache
	server  *sf.Server
	tserver *sf.Server // traced twin, sharing the cache (trace runs only)
	hot     []*hotOp
	nd      time.Duration
}

func (e *serveEnv) close() {
	e.server.Close()
	if e.tserver != nil {
		e.tserver.Close()
	}
}

// serveSetup is everything before the first timed request: generating the
// hot patterns and inputs, nested dissection for the reordered twin,
// inspecting every hot operation into the cache, cloning sessions, and one
// run of each.
func serveSetup(seed int64, churn bool, threads int, tr *tracers) (*serveEnv, error) {
	lap2, err := sparse.Laplacian2D(110)
	if err != nil {
		return nil, err
	}
	lap3, err := sparse.Laplacian3D(23)
	if err != nil {
		return nil, err
	}
	// The hot patterns do not depend on the seed: a run's seed varies the
	// inputs and the order of requests, not the work each request does.
	pow, err := sparse.PowerLawSPD(12000, 3, 1)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{}
	for _, p := range []pattern{{name: "lap2d", a: lap2}, {name: "lap3d", a: lap3}, {name: "powerlaw", a: pow}} {
		if p.m, err = toMatrix(p.a); err != nil {
			return nil, err
		}
		env.pats = append(env.pats, p)
	}
	t0 := time.Now()
	nd, perm, err := env.pats[0].m.Reorder()
	env.nd = time.Since(t0)
	if err != nil {
		return nil, err
	}
	ndA, err := sparse.PermuteSym(lap2, perm)
	if err != nil {
		return nil, err
	}
	env.pats = append(env.pats, pattern{name: "lap2d-nd", a: ndA, m: nd})

	rng := rand.New(rand.NewSource(seed))
	for _, p := range env.pats {
		var in [][]float64
		for j := 0; j < warmInputs; j++ {
			x := make([]float64, p.a.Rows)
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			in = append(in, x)
		}
		env.inputs = append(env.inputs, in)
	}

	entries := warmCacheEntries
	if churn {
		entries = churnCacheEntries
	}
	env.cache = sf.NewScheduleCache(sf.CacheConfig{MaxEntries: entries, Tracer: tr.cache})
	scfg := sf.ServerConfig{MaxConcurrent: 1, Width: threads, MaxQueue: maxQueue, Cache: env.cache}
	env.server = sf.NewServer(scfg)
	if tr.server != nil {
		scfg.Tracer = tr.server
		env.tserver = sf.NewServer(scfg)
	}
	ctx := context.Background()
	for pi, p := range env.pats {
		for _, c := range servedCombos {
			op, err := sf.NewOperation(c, p.m, sf.Options{Threads: threads, Cache: env.cache, Tracer: tr.setup})
			if err != nil {
				env.close()
				return nil, fmt.Errorf("%s %v: %w", p.name, c, err)
			}
			h := &hotOp{pat: pi, combo: c, op: op, sessions: make(chan *sf.Session, sessionsPerOp)}
			for w := 0; w < sessionsPerOp; w++ {
				s, err := op.NewSession()
				if err != nil {
					env.close()
					return nil, err
				}
				if _, err := s.RunOnContext(ctx, env.server); err != nil {
					env.close()
					return nil, fmt.Errorf("first run %s %v: %w", p.name, c, err)
				}
				h.sessions <- s
			}
			env.hot = append(env.hot, h)
		}
	}
	return env, nil
}

// tracers are the program tracers a traced run attaches: the cache's, the
// traced server's, and the one set-up inspections report to.
type tracers struct {
	cache, server, setup       *sf.Tracer
	cacheEv, serverEv, setupEv *sink
}

func newTracers(on bool) *tracers {
	t := &tracers{cacheEv: &sink{}, serverEv: &sink{}, setupEv: &sink{}}
	if on {
		t.cache, t.server, t.setup = sf.NewTracer(t.cacheEv), sf.NewTracer(t.serverEv), sf.NewTracer(t.setupEv)
	}
	return t
}

// Request kinds.
const (
	kindWarm  = iota // a session run on a hot operation
	kindValue        // NewOperation on a hot pattern with new values
	kindCold         // NewOperation on a never-seen pattern
)

type request struct {
	kind  int
	op    int // kindWarm: hot op; kindValue: variant*len(servedCombos)+combo; kindCold: cold index
	input int
}

// variant is a hot pattern with new values (same structure, so the cache
// hits but the packed layout, which holds values, must be rebuilt).
type variant struct {
	pat  int
	m    *sf.Matrix
	want []([]float64) // oracle output per served combination
}

type coldCase struct {
	combo sf.Combination
	m     *sf.Matrix
	want  []float64
}

// plan draws the request sequence from the seed. The mix is fixed — exact
// counts of each kind, every hot operation, input and variant equally often
// — and only the order comes from the seed, so two seeds differ in sampling
// order, not in the work they offer.
func plan(seed int64, n int, churn bool, hot, variants int) []request {
	nCold, nValue := 0, 0
	if churn {
		nCold = int(math.Round(churnColdShare * float64(n)))
		nValue = int(math.Round(churnValueShare * float64(n)))
	}
	out := make([]request, 0, n)
	for k := 0; k < nCold; k++ {
		out = append(out, request{kind: kindCold, op: k})
	}
	for k := 0; k < nValue; k++ {
		out = append(out, request{kind: kindValue, op: k % (variants * len(servedCombos))})
	}
	for k := 0; len(out) < n; k++ {
		out = append(out, request{kind: kindWarm, op: k % hot, input: (k / hot) % warmInputs})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makeVariants builds valueVariants value-churned copies of every hot
// pattern and their oracle outputs. Off-diagonal values are scaled by a
// seeded factor in [0.5, 1), which keeps the generators' diagonal dominance,
// so every variant stays SPD.
func makeVariants(env *serveEnv, seed int64) ([]variant, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7a1e))
	var out []variant
	for v := 0; v < valueVariants; v++ {
		for pi, p := range env.pats {
			a := p.a.Clone()
			for r := 0; r < a.Rows; r++ {
				for k := a.P[r]; k < a.P[r+1]; k++ {
					if a.I[k] != r {
						a.X[k] *= 0.5 + 0.5*rng.Float64()
					}
				}
			}
			m, err := toMatrix(a)
			if err != nil {
				return nil, err
			}
			vr := variant{pat: pi, m: m}
			for _, c := range servedCombos {
				w, err := oracleOutput(c, a, nil)
				if err != nil {
					return nil, err
				}
				vr.want = append(vr.want, w)
			}
			out = append(out, vr)
		}
	}
	return out, nil
}

// makeCold generates the never-seen patterns serve-churn requests, with
// their oracle outputs. The (family, combination) pairs are dealt in turn
// from a seeded shuffle of all 21, and sizes spread evenly over 3,000-8,000
// rows (a golden-ratio sequence from a seeded start), so every run inspects
// nearly the same population of patterns; the seed changes the patterns
// themselves.
func makeCold(seed int64, n int) ([]coldCase, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	deck := rng.Perm(3 * len(allCombos))
	u := rng.Float64()
	out := make([]coldCase, 0, n)
	for k := 0; k < n; k++ {
		card := deck[k%len(deck)]
		c := allCombos[card%len(allCombos)]
		u = math.Mod(u+0.6180339887498949, 1)
		rows := 3000 + int(5000*u)
		s := rng.Int63()
		var a *sparse.CSR
		var err error
		switch card / len(allCombos) {
		case 0:
			a, err = sparse.PowerLawSPD(rows, 3, s)
		case 1:
			a, err = sparse.BandedSPD(rows, 16, 0.3, s)
		default:
			a, err = sparse.RandomSPD(rows, 6, s)
		}
		if err != nil {
			return nil, err
		}
		m, err := toMatrix(a)
		if err != nil {
			return nil, err
		}
		w, err := oracleOutput(c, a, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, coldCase{combo: c, m: m, want: w})
	}
	return out, nil
}

// served is what one request did, written by the worker that ran it.
type served struct {
	kind    int
	ok      bool
	rep     sf.Report
	ran     bool          // a run reached the executor
	newOp   time.Duration // NewOperation wall time (value and cold kinds)
	miss    bool          // NewOperation ran an inspection
	rebuilt bool          // a cache hit whose packed layout was rebuilt for new values
	fp      string        // the operation's fingerprint prefix, as cache events carry it
	spans   *reqSpans
	events  []event // the request's own inspection events (traced)
}

func runServe(cfg config, churn bool) (*outcome, error) {
	threads := runtime.NumCPU()
	rate := warmRate
	limit := warmLimit
	if churn {
		rate, limit = churnRate, churnLimit
	}
	tr := newTracers(cfg.trace)
	var env *serveEnv
	var setups sample
	for k := 0; k < setupRepeats; k++ {
		if env != nil {
			env.close()
			env = nil
			tr.setupEv.take()
		}
		runtime.GC()
		t0 := time.Now()
		e, err := serveSetup(cfg.seed, churn, threads, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()

	// Oracle outputs and the churn inputs are the benchmark's own
	// preparation, outside set-up time.
	for _, h := range env.hot {
		for _, x := range env.inputs[h.pat] {
			w, err := oracleOutput(h.combo, env.pats[h.pat].a, x)
			if err != nil {
				return nil, err
			}
			h.want = append(h.want, w)
		}
	}
	n := int(rate * cfg.seconds.Seconds())
	reqs := plan(cfg.seed, n, churn, len(env.hot), valueVariants*len(env.pats))
	var variants []variant
	var colds []coldCase
	if churn {
		var err error
		if variants, err = makeVariants(env, cfg.seed); err != nil {
			return nil, err
		}
		nCold := 0
		for _, r := range reqs {
			if r.kind == kindCold {
				nCold++
			}
		}
		if colds, err = makeCold(cfg.seed, nCold); err != nil {
			return nil, err
		}
	}

	out := newOutcome()
	var outMu sync.Mutex
	res := make([]served, n)
	// owner[fp] is the value variant (-1 for the hot values) the cached
	// layout of a fingerprint was built from, so a hit can tell whether its
	// layout had to be rebuilt.
	owner := map[string]int{}
	var ownerMu sync.Mutex
	for _, h := range env.hot {
		owner[h.op.Fingerprint()[:12]] = -1
	}

	handle := func(i, w int, due time.Time, sv *sf.Server, traced bool) (time.Time, error) {
		issued := time.Now()
		q := reqs[i]
		r := &res[i]
		r.kind = q.kind
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		var calls []span // timed facade calls, recorded once done is known
		call := func(name string, start time.Time) {
			calls = append(calls, span{Name: name, StartNS: start.UnixNano(), DurNS: time.Since(start).Nanoseconds()})
		}
		var got, want []float64
		var exact bool
		var err error
		demoted, reason := 0, ""
		switch q.kind {
		case kindWarm:
			h := env.hot[q.op]
			s := <-h.sessions
			defer func() { h.sessions <- s }()
			t := time.Now()
			err = s.SetInput(env.inputs[h.pat][q.input])
			call("Session.SetInput", t)
			if err == nil {
				t = time.Now()
				r.rep, err = s.RunOnContext(ctx, sv)
				call("Session.RunOnContext", t)
				r.ran = err == nil
				t = time.Now()
				got = s.Output()
				call("Session.Output", t)
			}
			want, exact = h.want[q.input], exactCombo(h.combo)
		default:
			var c sf.Combination
			var m *sf.Matrix
			vi := -2
			if q.kind == kindValue {
				vi = q.op / len(servedCombos)
				v := variants[vi]
				c, m = servedCombos[q.op%len(servedCombos)], v.m
				want = v.want[q.op%len(servedCombos)]
			} else {
				cc := colds[q.op]
				c, m, want = cc.combo, cc.m, cc.want
			}
			exact = exactCombo(c)
			opts := sf.Options{Threads: threads, Cache: env.cache}
			var evs *sink
			if traced {
				evs = &sink{}
				opts.Tracer = sf.NewTracer(evs)
			}
			t := time.Now()
			var op *sf.Operation
			op, err = sf.NewOperation(c, m, opts)
			r.newOp = time.Since(t)
			call("NewOperation", t)
			if err == nil {
				built := len(op.Health().Demotions)
				if traced {
					r.events = evs.take()
					for _, e := range r.events {
						r.miss = r.miss || e.name() == "inspect.ico"
					}
					r.fp = op.Fingerprint()[:12]
					ownerMu.Lock()
					if r.miss {
						owner[r.fp] = vi
					} else {
						r.rebuilt = owner[r.fp] != vi
					}
					ownerMu.Unlock()
				}
				t = time.Now()
				r.rep, err = op.RunOnContext(ctx, sv)
				call("Operation.RunOnContext", t)
				r.ran = err == nil
				t = time.Now()
				got = op.Output()
				call("Operation.Output", t)
				// Demotions taken while building (a factorization has no
				// packed form) are expected; only the run's own count.
				h := op.Health()
				demoted = len(h.Demotions) - built
				for _, d := range h.Demotions {
					reason = fmt.Sprintf("%v %s->%s: %s", c, d.From, d.To, d.Reason)
				}
			}
		}
		done := time.Now()
		if traced {
			r.spans = requestSpans(i, due, issued, done, calls, r)
		}
		outMu.Lock()
		defer outMu.Unlock()
		out.attempted++
		out.demotions += demoted
		if reason != "" {
			out.demotionReasons[reason]++
		}
		if err != nil {
			out.fail(fmt.Sprintf("request %d: %v", i, err))
			return done, err
		}
		if cerr := compareOutput(got, want, exact); cerr != nil {
			out.wrong(fmt.Sprintf("request %d (kind %d): %v", i, q.kind, cerr))
			return done, nil
		}
		r.ok = true
		return done, nil
	}

	split := n
	if cfg.trace {
		split = n / 2
	}
	stats0 := env.server.Stats()
	runtime.GC()
	gc0 := gcCycles()
	mem := startMemPeak()
	times := openLoop(rate, split, clientWorkers, func(i, w int, due time.Time) (time.Time, error) {
		return handle(i, w, due, env.server, false)
	})
	peak := mem.stop()
	stats1 := env.server.Stats()

	var lat, svc sample
	good, ok := 0, 0
	var last time.Duration
	for i, t := range times {
		lat = append(lat, ms(t.latency()))
		svc = append(svc, ms(t.done-t.issued))
		last = max(last, t.done)
		if res[i].ok {
			ok++
			if t.latency() <= limit {
				good++
			}
		}
	}
	elapsed := last.Seconds()
	ls, ss := lat.summary(), svc.summary()
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"solve_ms.p50":   ss.P50,
		"solve_ms.p90":   svc.at(90),
		"solves_per_s":   float64(ok) / elapsed,
		"latency_ms.p50": ls.P50,
		"latency_ms.p99": lat.at(99),
		"goodput_rps":    float64(good) / elapsed,
		"mem_peak_mb":    peak,
	}
	out.detail["latency_ms"] = ls
	// Tails are reported by the traced run, not gated: on a shared 2-CPU
	// machine they moved by more than any usable bound from run to run.
	out.layer["solve_ms.p90"] = out.e2e["solve_ms.p90"]
	out.layer["latency_ms.p99"] = out.e2e["latency_ms.p99"]
	byKind := map[int]sample{}
	for i, t := range times {
		byKind[res[i].kind] = append(byKind[res[i].kind], ms(t.latency()))
	}
	for k, v := range byKind {
		out.detail[fmt.Sprintf("latency_ms_kind%d", k)] = v.summary()
	}
	out.detail["gc_cycles"] = gcCycles() - gc0
	out.detail["solve_ms"] = ss
	out.detail["setup_s"] = setups
	out.detail["offered_rps"] = rate
	out.detail["shed"] = stats1.Shed - stats0.Shed
	if !cfg.trace {
		return out, nil
	}

	// Traced half: the traced server, per-request inspection tracers, and
	// the benchmark's spans.
	setupEvents := tr.setupEv.take()
	tr.cacheEv.take()
	cs0, ts0 := env.cache.Stats(), env.tserver.Stats()
	ttimes := openLoop(rate, n-split, clientWorkers, func(i, w int, due time.Time) (time.Time, error) {
		return handle(split+i, w, due, env.tserver, true)
	})
	cs1, ts1 := env.cache.Stats(), env.tserver.Stats()
	admits := tr.serverEv.take()
	cacheEvents := tr.cacheEv.take()

	led := &ledger{}
	var inspect []event
	var runUS, gflops, bw, et, hitMS, missMS, lag, warm0, warm1 sample
	rebuilds := 0
	for i, t := range times {
		if res[i].kind == kindWarm {
			warm0 = append(warm0, ms(t.done-t.issued))
		}
	}
	for k, t := range ttimes {
		r := &res[split+k]
		lag = append(lag, ms(t.lag()))
		if r.kind == kindWarm {
			warm1 = append(warm1, ms(t.done-t.issued))
		}
		if r.spans != nil {
			led.add(r.spans)
		}
		inspect = append(inspect, r.events...)
		if r.ran {
			runUS = append(runUS, float64(r.rep.Time.Nanoseconds())/1e3)
			gflops = append(gflops, r.rep.GFlops)
			bw = append(bw, ms(r.rep.BarrierWait))
			et = append(et, ms(r.rep.Time))
		}
		if r.kind != kindWarm && r.newOp > 0 {
			if r.miss {
				missMS = append(missMS, ms(r.newOp))
			} else {
				hitMS = append(hitMS, ms(r.newOp))
			}
			if r.rebuilt {
				rebuilds++
			}
		}
	}
	led.fillCacheSpans(missDurations(cacheEvents))
	acct := led.account()
	var waitUS sample
	for _, e := range admits {
		if e.name() == "serve.admit" {
			waitUS = append(waitUS, float64(e.dur("wait_ns").Nanoseconds())/1e3)
		}
	}
	acct.move("sparsefusion", "serve", waitUS.sum()/1e3/float64(max(acct.N, 1)))

	l := out.layer
	var sp, mw, par, reuse, flops, bytes sample
	for _, h := range env.hot {
		inst, err := comboInstance(h.combo, env.pats[h.pat].a)
		if err != nil {
			return nil, err
		}
		sh, err := shapeOf(inst, threads)
		if err != nil {
			return nil, err
		}
		if sh.SPartitions != h.op.Barriers() {
			return nil, fmt.Errorf("%s %v: rebuilt schedule has %d s-partitions, the operation %d", env.pats[h.pat].name, h.combo, sh.SPartitions, h.op.Barriers())
		}
		a := env.pats[h.pat].a
		bytes = append(bytes, float64(comboBytes(h.combo, a.NNZ(), lowerNNZ(a), a.Rows)))
		sp = append(sp, float64(sh.SPartitions))
		mw = append(mw, float64(sh.MaxWidth))
		par = append(par, sh.Parallelism)
		reuse = append(reuse, sh.Reuse)
		flops = append(flops, float64(sh.Flops))
	}
	speedup, err := serveSpeedup(env)
	if err != nil {
		return nil, err
	}
	demotions := out.demotions
	for _, h := range env.hot {
		demotions += len(h.op.Health().Demotions)
		for k := 0; k < sessionsPerOp; k++ {
			s := <-h.sessions
			demotions += len(s.Health().Demotions)
			h.sessions <- s
		}
	}
	l["exec.run_us.p50"] = runUS.at(50)
	l["exec.barrier_wait_share"] = bw.sum() / et.sum()
	l["exec.speedup_vs_w1"] = speedup
	l["exec.gflops"] = gflops.mean()
	l["exec.demotions"] = float64(demotions)
	l["kernels.flops"] = flops.mean()
	l["kernels.bytes_computed"] = bytes.mean()
	l["serve.admit_wait_us.p50"] = waitUS.at(50)
	l["serve.admit_wait_us.p99"] = waitUS.at(99)
	l["serve.queued_ratio"] = float64(ts1.Queued-ts0.Queued) / float64(max(ts1.Admitted-ts0.Admitted, 1))
	l["serve.shed"] = float64(stats1.Shed - stats0.Shed + ts1.Shed - ts0.Shed)
	lookups := (cs1.Hits - cs0.Hits) + (cs1.Waits - cs0.Waits) + (cs1.Misses - cs0.Misses)
	l["cache.hit_ratio"] = float64((cs1.Hits-cs0.Hits)+(cs1.Waits-cs0.Waits)) / float64(max(lookups, 1))
	l["cache.misses"] = float64(cs1.Misses - cs0.Misses)
	l["cache.waits"] = float64(cs1.Waits - cs0.Waits)
	l["cache.evictions"] = float64(cs1.Evictions - cs0.Evictions)
	l["cache.hit_op_ms"] = hitMS.mean()
	l["cache.miss_op_ms"] = missMS.mean()
	if len(inspect) == 0 {
		inspect = setupEvents // serve-warm inspects during set-up only
	}
	inspectionMetrics(l, inspect)
	l["core.s_partitions"] = sp.mean()
	l["core.max_width"] = mw.mean()
	l["core.parallelism"] = par.geomean() // MV-MV's near-flat DAGs would swamp a mean
	l["core.reuse_ratio"] = reuse.mean()
	l["relayout.rebuilds"] = float64(rebuilds)
	l["order.nd_ms"] = ms(env.nd)
	l["gen.lag_ms.p99"] = lag.at(99)
	l["trace.overhead_pct"] = 100 * (warm1.at(50) - warm0.at(50)) / warm0.at(50)
	accountingMetrics(l, acct)
	out.bypassed = []string{"solver."}
	out.detail["accounting"] = acct
	out.detail["demotions_by_reason"] = out.demotionReasons
	out.detail["traced_requests"] = len(ttimes)
	out.detail["admit_wait_us"] = waitUS.summary()
	out.detail["hit_ops"], out.detail["miss_ops"] = len(hitMS), len(missMS)
	return out, led.writeSpans(cfg.spanDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
}

// requestSpans lays one served request out as spans: the harness's share
// (generator lateness and waiting for a client worker), each facade call,
// and under the calls the durations the program reported — executor time
// from Report, inspection stages from the request's own tracer. A cache
// miss span gets its duration from the cache's event later (fillCacheSpans).
func requestSpans(i int, due, issued, done time.Time, calls []span, r *served) *reqSpans {
	rs := newReq(i, due, due, done)
	rs.timed(0, "harness", "due to issued", due, issued)
	for _, c := range calls {
		start := time.Unix(0, c.StartNS)
		id := rs.timed(0, "sparsefusion", c.Name, start, start.Add(time.Duration(c.DurNS)))
		switch c.Name {
		case "Session.RunOnContext", "Operation.RunOnContext":
			run := rs.reported(id, "exec", "fused run", r.rep.Time)
			rs.reported(run, "kernels", "loop bodies", r.rep.Time-r.rep.BarrierWait)
		case "NewOperation":
			parent := id
			for _, e := range r.events {
				switch e.name() {
				case "inspect.dag_build":
					rs.reported(id, "combos", "dag_build", e.dur("dur_ns"))
				case "inspect.ico":
					if parent == id {
						parent = rs.reported(id, "cache", "miss", 0)
						rs.spans[parent].FP = r.fp
					}
					rs.reported(parent, "core", "ico", e.dur("dur_ns"))
				case "inspect.compile":
					rs.reported(parent, "core", "compile", e.dur("dur_ns"))
				case "inspect.relayout":
					rs.reported(parent, "relayout", "relayout", e.dur("dur_ns"))
				}
			}
		}
	}
	return rs
}

// serveSpeedup runs every hot operation alternately at one worker and at
// full width on the idle untraced server and returns the ratio of the sums
// of their median executor times.
func serveSpeedup(env *serveEnv) (float64, error) {
	ctx := context.Background()
	var one, full float64
	for _, h := range env.hot {
		op1, err := sf.NewOperation(h.combo, env.pats[h.pat].m, sf.Options{Threads: 1})
		if err != nil {
			return 0, err
		}
		var t1, tn sample
		for k := 0; k < 10; k++ {
			r1, err := op1.RunOnContext(ctx, env.server)
			if err != nil {
				return 0, err
			}
			rn, err := h.op.RunOnContext(ctx, env.server)
			if err != nil {
				return 0, err
			}
			t1, tn = append(t1, ms(r1.Time)), append(tn, ms(rn.Time))
		}
		one += median(t1)
		full += median(tn)
	}
	return one / full, nil
}
