package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"treegion"
	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/profile"
	"treegion/internal/region"
	"treegion/internal/sched"
	"treegion/internal/telemetry"
	"treegion/internal/verify"
)

// layerTimes accumulates the self time of every layer the replay calls,
// plus the counts the calls return. The replay is serial and calls nothing
// else, so the layers' times do not overlap.
type layerTimes struct {
	clone, form, tailDup, liveness, ddg, sched, measure time.Duration
	vIR, vRG, vSC, vSEM, vCL                            time.Duration
	ddgAlloc, measureAlloc                              uint64
	nodes, edges, cycles, regions, regionOps            int64
}

// rows lists the budget table's layer rows in pipeline order.
func (l *layerTimes) rows() []budgetRow {
	return []budgetRow{
		{"ir.clone", l.clone}, {"core.form", l.form}, {"core.taildup", l.tailDup}, {"cfg.liveness", l.liveness},
		{"ddg.build", l.ddg}, {"sched.list", l.sched}, {"eval.measure", l.measure},
		{"verify.ir", l.vIR}, {"verify.rg", l.vRG}, {"verify.sc", l.vSC},
		{"verify.cl", l.vCL}, {"verify.sem", l.vSEM},
	}
}

type budgetRow struct {
	name string
	d    time.Duration
}

// heapAllocs reads the runtime's cumulative heap allocation counter, which
// costs far less than ReadMemStats. It advances a span at a time for small
// objects, so a single call's delta is approximate; sums over many calls
// are not biased.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// replayer redoes eval.CompileFunctionArena through the same public calls
// in the same order, timing each call, with one scratch pair reused across
// functions as a pipeline worker reuses its arena.
type replayer struct {
	c   eval.Config
	dsc ddg.Scratch
	ssc sched.Scratch
	l   layerTimes
}

// compile replays one function's compile on clones of orig and origProf
// and returns the estimated cycles, regions and schedules.
func (rp *replayer) compile(orig *ir.Function, origProf *profile.Data) (float64, *ir.Function, []*region.Region, []*sched.Schedule, error) {
	c, l := rp.c, &rp.l
	t0 := time.Now()
	fn, prof := orig.Clone(), origProf.Clone()
	l.clone += time.Since(t0)
	tr := telemetry.NewTrace(fn.Name)

	t0 = time.Now()
	g := cfg.New(fn)
	var regions []*region.Region
	switch c.Kind {
	case eval.Treegion:
		regions = core.FormInline(fn, g, nil)
	case eval.TreegionTD:
		td := c.TD
		if td.ExpansionLimit == 0 {
			td = core.DefaultTDConfig()
		}
		regions = core.FormTDTraced(fn, prof, td, tr)
	default:
		return 0, nil, nil, nil, fmt.Errorf("replay: region kind %s not replayed", c.Kind)
	}
	if err := region.CheckPartition(fn, regions); err != nil {
		return 0, nil, nil, nil, err
	}
	td := time.Duration(tr.PhaseNanos(telemetry.PhaseTailDup))
	l.form += time.Since(t0) - td
	l.tailDup += td

	t0 = time.Now()
	lv := cfg.ComputeLiveness(cfg.New(fn))
	l.liveness += time.Since(t0)

	var total float64
	schedules := make([]*sched.Schedule, 0, len(regions))
	for _, r := range regions {
		a0 := heapAllocs()
		t0 = time.Now()
		dg, err := ddg.BuildScratch(fn, r, ddg.Options{
			Rename:               c.Rename,
			DominatorParallelism: c.DominatorParallelism,
			Liveness:             lv,
			Profile:              prof,
		}, &rp.dsc)
		l.ddg += time.Since(t0)
		l.ddgAlloc += heapAllocs() - a0
		if err != nil {
			return 0, nil, nil, nil, err
		}

		t0 = time.Now()
		s := sched.ListScheduleScratch(dg, c.Machine, c.Heuristic.Keys, tr, &rp.ssc)
		err = s.Verify()
		l.sched += time.Since(t0)
		if err != nil {
			return 0, nil, nil, nil, err
		}

		a0 = heapAllocs()
		t0 = time.Now()
		rt := eval.MeasureRegion(s, prof, lv)
		l.measure += time.Since(t0)
		l.measureAlloc += heapAllocs() - a0

		total += rt.Time
		schedules = append(schedules, s)
		l.nodes += int64(len(dg.Nodes))
		for _, n := range dg.Nodes {
			l.edges += int64(len(n.Succs))
		}
		l.cycles += int64(s.Length)
		l.regions++
		for _, b := range r.Blocks {
			l.regionOps += int64(len(fn.Blocks[b].Ops))
		}
	}
	return total, fn, regions, schedules, nil
}

// verify replays verify.Compiled's rule families over one replayed compile,
// in its order and under the options eval.VerifyDiagnostics derives.
func (rp *replayer) verify(orig, fn *ir.Function, regions []*region.Region, schedules []*sched.Schedule) []verify.Diagnostic {
	c, l := rp.c, &rp.l
	var td core.TDConfig
	if c.Kind == eval.TreegionTD {
		td = c.TD
		if td.ExpansionLimit == 0 {
			td = core.DefaultTDConfig()
		}
	}
	var ds []verify.Diagnostic
	if err := c.Machine.Validate(); err != nil {
		ds = append(ds, verify.Diagnostic{Rule: "MC001", Severity: verify.Error, Fn: fn.Name, Block: ir.NoBlock, Op: -1, Message: err.Error()})
	}
	t0 := time.Now()
	ds = append(ds, verify.CheckFunction(fn, c.IfConvert)...)
	l.vIR += time.Since(t0)
	if verify.HasErrors(ds) {
		return ds
	}
	t0 = time.Now()
	lv := cfg.ComputeLiveness(cfg.New(fn))
	l.liveness += time.Since(t0)

	t0 = time.Now()
	ds = append(ds, verify.CheckRegionsInline(fn, regions, td, nil)...)
	l.vRG += time.Since(t0)

	t0 = time.Now()
	for i, s := range schedules {
		ds = append(ds, verify.CheckSchedule(fn, regions[i], s, lv)...)
	}
	l.vSC += time.Since(t0)

	// CheckCalls runs only with a program context or inlining, which no
	// workload compiles with; verify.cl stays in the table at zero.
	if !c.IfConvert {
		t0 = time.Now()
		ds = append(ds, verify.CheckSemanticsProgram(nil, orig, fn, nil, 0)...)
		l.vSEM += time.Since(t0)
	}
	return ds
}

// traceReps is how many times the traced run replays the plain compile.
const traceReps = 3

// plainReplay is one traced replay of the batch set.
type plainReplay struct {
	l    layerTimes
	wall time.Duration
}

// replayPlain replays every batch function serially and checks each
// against the pipeline's estimated cycles.
func replayPlain(e *env, want map[string]float64, ops *tally) plainReplay {
	rp := &replayer{c: e.cfg}
	var out plainReplay
	t0 := time.Now()
	for _, p := range e.batch {
		// Keep a program's schedules alive until it is done, as the
		// pipeline keeps every FunctionResult until it aggregates, so the
		// replay's garbage collector sees the same live heap.
		var keep [][]*sched.Schedule
		for i, fn := range p.prog.Funcs {
			got, _, _, schedules, err := rp.compile(fn, p.profs[i])
			keep = append(keep, schedules)
			switch {
			case err != nil:
				ops.record(fmt.Sprintf("replay %s: %v", fn.Name, err))
			case got != want[fn.Name]:
				ops.record(fmt.Sprintf("replay %s: %v cycles, pipeline %v", fn.Name, got, want[fn.Name]))
			default:
				ops.record()
			}
		}
		runtime.KeepAlive(keep)
	}
	out.wall = time.Since(t0)
	out.l = rp.l
	return out
}

// batchTrace is the traced batch section: untraced pipeline compiles for
// reference, then the replay, with the budget table of each replay.
type batchTrace struct {
	plain, verified         layerTimes
	plainWall, verifiedWall time.Duration // traced replays
	serialWall, serialVWall time.Duration // untraced pipeline, 1 worker
	parallelWall            time.Duration // untraced pipeline, all workers
	programTrace            telemetry.TraceSnapshot
	storeHits, verdictHits  int64
}

func traceBatch(e *env, workers int, pins map[string]float64, ops *ledger) *batchTrace {
	bt := &batchTrace{}
	programTrace := telemetry.NewTrace("batch")
	want := map[string]float64{}

	// An untraced compile at all workers, one at one worker and the traced
	// replay alternate traceReps times, and each keeps its median, so that
	// no one of them carries the first pass's warm-up. The budget table is
	// the replay with the median wall time; the overhead compares it with
	// the median serial compile, and the pipeline residual compares the
	// median parallel compile with the median serial one.
	var parallel, serial []float64
	var replays []plainReplay
	for rep := 0; rep < traceReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		for _, p := range e.batch {
			r, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(workers))
			if err != nil {
				ops.in("parallel compile").record(fmt.Sprintf("parallel compile %s: %v", p.prog.Name, err))
				continue
			}
			ops.in("parallel compile").record(checkPin(pins, "parallel", r)...)
		}
		parallel = append(parallel, float64(time.Since(t0)))

		runtime.GC()
		t0 = time.Now()
		for _, p := range e.batch {
			r, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(1))
			if err != nil {
				ops.in("serial compile").record(fmt.Sprintf("serial compile %s: %v", p.prog.Name, err))
				continue
			}
			ops.in("serial compile").record(checkPin(pins, "serial", r)...)
			if rep == 0 {
				programTrace.Merge(r.Trace)
				for _, fr := range r.Funcs {
					want[fr.Fn.Name] = fr.Time
				}
			}
		}
		serial = append(serial, float64(time.Since(t0)))
		runtime.GC()
		replays = append(replays, replayPlain(e, want, ops.in("plain replay")))
	}
	bt.parallelWall = time.Duration(median(parallel))
	bt.serialWall = time.Duration(median(serial))
	bt.programTrace = programTrace.Snapshot()
	slices.SortFunc(replays, func(a, b plainReplay) int { return int(a.wall - b.wall) })
	mid := replays[(len(replays)-1)/2]
	bt.plainWall, bt.plain = mid.wall, mid.l

	// Verified: the pipeline's diagnostics (advisory ones ride on the
	// result, Error ones fail the function) against the replay's.
	wantDiags := map[string][]string{}
	runtime.GC()
	t0 := time.Now()
	for _, p := range e.verified {
		r, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(1), treegion.WithVerify())
		if err != nil {
			ops.in("serial verified compile").record(fmt.Sprintf("serial verified compile %s: %v", p.prog.Name, err))
			continue
		}
		ops.in("serial verified compile").record()
		for _, fr := range r.Funcs {
			wantDiags[fr.Fn.Name] = diagStrings(fr.Diagnostics)
		}
	}
	bt.serialVWall = time.Since(t0)

	runtime.GC()
	rp := &replayer{c: e.cfg}
	vops := ops.in("verified replay")
	t0 = time.Now()
	for _, p := range e.verified {
		for i, orig := range p.prog.Funcs {
			got, fn, regions, schedules, err := rp.compile(orig, p.profs[i])
			if err != nil {
				vops.record(fmt.Sprintf("verified replay %s: %v", orig.Name, err))
				continue
			}
			ds := diagStrings(rp.verify(orig, fn, regions, schedules))
			switch {
			case got != want[orig.Name]:
				vops.record(fmt.Sprintf("verified replay %s: %v cycles, pipeline %v", orig.Name, got, want[orig.Name]))
			case !slices.Equal(ds, wantDiags[orig.Name]):
				vops.record(fmt.Sprintf("verified replay %s: diagnostics %q, pipeline %q", orig.Name, ds, wantDiags[orig.Name]))
			default:
				vops.record()
			}
		}
	}
	bt.verifiedWall = time.Since(t0)
	bt.verified = rp.l

	m := &treegion.CompileMetrics{}
	st, err := treegion.OpenArtifactStore(e.storeDir, 0)
	if err != nil {
		ops.in("warm compile").record(fmt.Sprintf("open store: %v", err))
		return bt
	}
	cache := treegion.NewCompileCache(0)
	cache.SetL2(st)
	for _, p := range e.verified {
		_, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(workers),
			treegion.WithCache(cache), treegion.WithMetrics(m), treegion.WithVerify())
		if err != nil {
			ops.in("warm compile").record(fmt.Sprintf("warm compile %s: %v", p.prog.Name, err))
		} else {
			ops.in("warm compile").record()
		}
	}
	st.Close()
	bt.storeHits, bt.verdictHits = m.StoreHits.Load(), m.VerdictHits.Load()
	return bt
}

// diagStrings renders diagnostics in a canonical order, so two lists
// compare equal exactly when they hold the same findings.
func diagStrings(ds []verify.Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	slices.Sort(out)
	return out
}

// serveTrace replays every completed request in-process, client by client
// in the order each client sent them, through the daemon's own steps:
// decode the body, ParseFunction, ProfileFunction, CompileOne on a shared
// cache.
type serveTrace struct {
	decode, parse, profile, compile time.Duration
	wall                            time.Duration
	lookups                         []float64 // CompileOne ms on designed hits
	residuals                       []float64 // client ms minus replay ms
}

func traceServe(e *env, sr *serveResult, bodies *bodyCache, ops *tally) *serveTrace {
	st := &serveTrace{}
	cache := treegion.NewCompileCache(0)
	runtime.GC()
	start := time.Now()
	for _, s := range sr.samples {
		if s.err != "" {
			continue
		}
		body := bodies.get(s.req)
		t0 := time.Now()
		var req compileRequest
		if err := json.Unmarshal(body, &req); err != nil {
			ops.record(fmt.Sprintf("decode: %v", err))
			continue
		}
		t1 := time.Now()
		fn, err := treegion.ParseFunction(req.IR)
		t2 := time.Now()
		if err != nil {
			ops.record(fmt.Sprintf("parse: %v", err))
			continue
		}
		prof, err := treegion.ProfileFunction(fn, req.Seed, req.Trips)
		t3 := time.Now()
		if err != nil {
			ops.record(fmt.Sprintf("profile: %v", err))
			continue
		}
		c, _ := regionConfig(req.Region)
		opts := []treegion.CompileOption{treegion.WithWorkers(1), treegion.WithCache(cache)}
		if req.Verify {
			opts = append(opts, treegion.WithVerify())
		}
		fr, cached, err := treegion.CompileOne(bg, fn, prof, c, opts...)
		t4 := time.Now()
		st.decode += t1.Sub(t0)
		st.parse += t2.Sub(t1)
		st.profile += t3.Sub(t2)
		st.compile += t4.Sub(t3)
		replayMS := float64(t4.Sub(t0)) / 1e6
		st.residuals = append(st.residuals, float64(s.latency)/1e6-replayMS)
		if cached {
			st.lookups = append(st.lookups, float64(t4.Sub(t3))/1e6)
		}
		var problems []string
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("replay %s: %v", e.pool[s.req.fn].name, err))
		case fr.Time != s.resp.Time:
			problems = append(problems, fmt.Sprintf("replay %s: %v cycles, daemon %v", e.pool[s.req.fn].name, fr.Time, s.resp.Time))
		case cached == s.req.cold:
			problems = append(problems, fmt.Sprintf("replay %s: cached=%t for a request designed cold=%t", e.pool[s.req.fn].name, cached, s.req.cold))
		case req.Verify && !slices.Equal(diagStrings(fr.Diagnostics), sortedCopy(s.resp.Diagnostics)):
			problems = append(problems, fmt.Sprintf("replay %s: diagnostics differ from the daemon's", e.pool[s.req.fn].name))
		}
		ops.record(problems...)
	}
	st.wall = time.Since(start)
	return st
}

func sortedCopy(xs []string) []string {
	out := slices.Clone(xs)
	if out == nil {
		out = []string{}
	}
	slices.Sort(out)
	return out
}

// printBudget writes one budget table: every layer's self time, the
// residual the layers do not cover, and the wall time they add up to.
func printBudget(w io.Writer, title string, wall time.Duration, rows []budgetRow) time.Duration {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-22s %12s %8s\n", "layer", "self ms", "share")
	var sum time.Duration
	for _, r := range rows {
		sum += r.d
		fmt.Fprintf(w, "  %-22s %12.3f %7.1f%%\n", r.name, ms(r.d), pct(r.d, wall))
	}
	residual := wall - sum
	fmt.Fprintf(w, "  %-22s %12.3f %7.1f%%\n", "residual", ms(residual), pct(residual, wall))
	fmt.Fprintf(w, "  %-22s %12.3f %7.1f%%\n", "wall = sum + residual", ms(wall), 100.0)
	return residual
}

// printCrossCheck sets the program's own CompileTrace phases beside the
// replay's outside timings of the same work.
func printCrossCheck(w io.Writer, snap telemetry.TraceSnapshot, l *layerTimes) {
	ph := func(ps ...telemetry.Phase) time.Duration {
		var d time.Duration
		for _, p := range ps {
			d += snap.Phase[p].Duration()
		}
		return d
	}
	fmt.Fprintf(w, "\ncross-check: program CompileTrace (untraced serial compile) vs replay\n")
	fmt.Fprintf(w, "  %-34s %12s %12s\n", "phase", "trace ms", "replay ms")
	for _, r := range []struct {
		name   string
		trace  time.Duration
		replay time.Duration
	}{
		{"treeform / core.form", ph(telemetry.PhaseTreeform), l.form},
		{"tail-dup / core.taildup", ph(telemetry.PhaseTailDup), l.tailDup},
		{"liveness / cfg.liveness", ph(telemetry.PhaseLiveness), l.liveness},
		{"ddg-build / ddg.build", ph(telemetry.PhaseDDG), l.ddg},
		{"priority-sort+list-sched / sched", ph(telemetry.PhasePrioritySort, telemetry.PhaseListSched), l.sched},
		{"measure / eval.measure", ph(telemetry.PhaseMeasure), l.measure},
	} {
		fmt.Fprintf(w, "  %-34s %12.3f %12.3f\n", r.name, ms(r.trace), ms(r.replay))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func pct(d, of time.Duration) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(d) / float64(of)
}
