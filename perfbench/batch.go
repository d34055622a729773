package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"treegion"
)

var bg = context.Background()

// batchResult holds one sample per pass of each kind.
type batchResult struct {
	compileS, verifiedS, warmS, allocMB []float64
	estGeomean                          float64
	rounds                              int
}

// runBatch repeats rounds until budget has passed (at least one round).
// A round is w.plainReps cold plain compiles of the batch set, one cold
// verified compile of the verified set, and warmReps verified restarts of
// the verified set from the warm store: the cheap passes repeat so that each
// metric gets enough samples for a steady median. Programs compile in a
// seed-drawn order; every result is checked against its pin.
func runBatch(e *env, budget time.Duration, rng *rand.Rand, workers int, pins map[string]float64, ops *ledger) *batchResult {
	res := &batchResult{}
	start := time.Now()
	// A round starts only if it is expected to end by half a round past the
	// budget, so the section overshoots by less than one round.
	for ; res.rounds == 0 || time.Since(start)+time.Since(start)/time.Duration(2*res.rounds) < budget; res.rounds++ {
		for i := 0; i < e.w.plainReps; i++ {
			plainPass(e, res, rng.Perm(len(e.batch)), workers, pins, ops.in("plain compile"))
		}
		verified := ops.in("verified compile")
		runtime.GC()
		t0 := time.Now()
		for _, i := range rng.Perm(len(e.verified)) {
			p := e.verified[i]
			r, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(workers), treegion.WithVerify())
			if err != nil {
				verified.record(fmt.Sprintf("verified compile %s: %v", p.prog.Name, err))
				continue
			}
			verified.record(append(checkPin(pins, "verified", r), checkNoErrors(r)...)...)
		}
		res.verifiedS = append(res.verifiedS, time.Since(t0).Seconds())

		for i := 0; i < warmReps; i++ {
			runtime.GC()
			warm, err := warmStart(e, rng.Perm(len(e.verified)), workers, pins, ops)
			if err != nil {
				ops.in("warm start").record(fmt.Sprintf("warm start: %v", err))
				continue
			}
			res.warmS = append(res.warmS, warm)
		}
	}
	return res
}

// plainPass is one cold plain compile of the batch set, timed, with the
// bytes it allocated.
func plainPass(e *env, res *batchResult, order []int, workers int, pins map[string]float64, ops *tally) {
	var times []float64
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	for _, i := range order {
		p := e.batch[i]
		r, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(workers))
		if err != nil {
			ops.record(fmt.Sprintf("plain compile %s: %v", p.prog.Name, err))
			continue
		}
		ops.record(checkPin(pins, "plain", r)...)
		times = append(times, r.Time)
	}
	res.compileS = append(res.compileS, time.Since(t0).Seconds())
	runtime.ReadMemStats(&ms)
	res.allocMB = append(res.allocMB, float64(ms.TotalAlloc-alloc0)/(1<<20))
	slices.Sort(times)
	res.estGeomean = geomean(times)
}

// warmStart is one verified compile of the verified set on a restarted
// process: a cold memory cache over the store setup populated. It must run
// no compile and no verifier: each restart is one more operation of the
// "warm start: 0 compiles" phase, failed when it ran any.
func warmStart(e *env, order []int, workers int, pins map[string]float64, ops *ledger) (float64, error) {
	m := &treegion.CompileMetrics{}
	t0 := time.Now()
	st, err := treegion.OpenArtifactStore(e.storeDir, 0)
	if err != nil {
		return 0, err
	}
	cache := treegion.NewCompileCache(0)
	cache.SetL2(st)
	for _, i := range order {
		p := e.verified[i]
		r, err := treegion.Compile(bg, p.prog, p.profs, e.cfg, treegion.WithWorkers(workers),
			treegion.WithCache(cache), treegion.WithMetrics(m), treegion.WithVerify())
		if err != nil {
			ops.in("warm start").record(fmt.Sprintf("warm compile %s: %v", p.prog.Name, err))
			continue
		}
		ops.in("warm start").record(append(checkPin(pins, "warm", r), checkNoErrors(r)...)...)
	}
	elapsed := time.Since(t0).Seconds()
	if err := st.Close(); err != nil {
		return 0, err
	}
	zero := ops.in("warm start: 0 compiles")
	if c, v := m.Compiles.Load(), m.VerifyRuns.Load(); c != 0 || v != 0 {
		zero.record(fmt.Sprintf("warm start ran %d compiles and %d verifier runs, want 0 and 0", c, v))
	} else {
		zero.record()
	}
	return elapsed, nil
}

// checkPin compares every function's estimated cycles with its pin.
func checkPin(pins map[string]float64, pass string, r *treegion.ProgramResult) []string {
	var bad []string
	for _, fr := range r.Funcs {
		want, ok := pins[fr.Fn.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no pinned cycles for %s", pass, fr.Fn.Name))
		} else if fr.Time != want {
			bad = append(bad, fmt.Sprintf("%s: %s estimated %v cycles, pinned %v", pass, fr.Fn.Name, fr.Time, want))
		}
	}
	return bad
}

func checkNoErrors(r *treegion.ProgramResult) []string {
	var bad []string
	for _, fr := range r.Funcs {
		for _, d := range fr.Diagnostics {
			if d.Severity >= treegion.SeverityError {
				bad = append(bad, fmt.Sprintf("verified %s: %s", fr.Fn.Name, d))
			}
		}
	}
	return bad
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report.
type tally struct {
	attempted, failed int
	msgs              []string
}

// record counts one operation, failed when it has any problem.
func (t *tally) record(problems ...string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		if len(t.msgs) < 20 {
			t.msgs = append(t.msgs, p)
		}
	}
}

// ledger keeps one tally per phase of a run, in the order the phases
// first record, so the report shows how many operations each phase ran and
// which one failed.
type ledger struct {
	names  []string
	phases map[string]*tally
}

// in returns the tally of phase, creating it on first use.
func (l *ledger) in(phase string) *tally {
	if t, ok := l.phases[phase]; ok {
		return t
	}
	if l.phases == nil {
		l.phases = map[string]*tally{}
	}
	t := &tally{}
	l.names = append(l.names, phase)
	l.phases[phase] = t
	return t
}

// total sums every phase, keeping the first failure messages.
func (l *ledger) total() tally {
	var sum tally
	for _, name := range l.names {
		t := l.phases[name]
		sum.attempted += t.attempted
		sum.failed += t.failed
		for _, m := range t.msgs {
			if len(sum.msgs) < 20 {
				sum.msgs = append(sum.msgs, m)
			}
		}
	}
	return sum
}

// print writes the attempted, succeeded and failed counts of every phase
// and their total.
func (l *ledger) print() {
	fmt.Printf("\noperations:\n  %-26s %10s %10s %8s\n", "phase", "attempted", "succeeded", "failed")
	row := func(name string, t tally) {
		fmt.Printf("  %-26s %10d %10d %8d\n", name, t.attempted, t.attempted-t.failed, t.failed)
	}
	for _, name := range l.names {
		row(name, *l.phases[name])
	}
	row("total", l.total())
}
