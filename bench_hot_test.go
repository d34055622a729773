package treegion

// Micro-benchmarks for the three rebuilt hot phases of the compiler core —
// bitset liveness, slab DDG construction, and bitmap-queue list scheduling —
// each driven cold over every function of the 8-benchmark suite. They
// isolate one phase per iteration, so a regression in (say) the scheduler's
// ready queue shows up here before it moves the whole-pipeline
// BenchmarkCompileSuiteSerial number. `make bench` captures them in
// BENCH_9.json; `make check` runs them once under the race detector.

import (
	"testing"

	"treegion/internal/cfg"
	"treegion/internal/core"
	"treegion/internal/ddg"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/region"
	"treegion/internal/sched"
)

// hotFunc is one suite function prepared up to the phase under test.
type hotFunc struct {
	fn      *ir.Function
	regions []*region.Region
	lv      *cfg.Liveness
}

// BenchmarkColdCompileLiveness measures the bitset dataflow phase exactly as
// the compile path runs it: CFG construction plus iterate-to-fixpoint
// liveness for every function of the suite.
func BenchmarkColdCompileLiveness(b *testing.B) {
	s := sharedSuite(b)
	var fns []*ir.Function
	for _, p := range s.Programs {
		for _, fn := range p.Funcs {
			fns = append(fns, fn.Clone())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			lv := cfg.ComputeLiveness(cfg.New(f))
			if len(lv.LiveIn) == 0 {
				b.Fatal("empty liveness")
			}
		}
	}
}

// BenchmarkColdCompileDDG measures slab DDG construction — dominator
// parallelism off, renaming on, the headline configuration — over every
// region of the suite, on one reused Scratch as a compile's arena provides.
// Renaming mutates the function, so each iteration rebuilds its inputs
// outside the timed region.
func BenchmarkColdCompileDDG(b *testing.B) {
	s := sharedSuite(b)
	var sc ddg.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var prep []hotFunc
		for _, p := range s.Programs {
			for _, fn := range p.Funcs {
				f := fn.Clone()
				g := cfg.New(f)
				rs := core.Form(f, g)
				lv := cfg.ComputeLiveness(cfg.New(f))
				prep = append(prep, hotFunc{fn: f, regions: rs, lv: lv})
			}
		}
		b.StartTimer()
		for _, h := range prep {
			for _, r := range h.regions {
				if _, err := ddg.BuildScratch(h.fn, r, ddg.Options{Rename: true, Liveness: h.lv}, &sc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// schedGraphs builds every region DDG of progs, prepared exactly as the
// compile path prepares them. Scheduling never mutates the graph, so the
// result is reusable across benchmark iterations.
func schedGraphs(b *testing.B, progs []*Program) []*ddg.Graph {
	b.Helper()
	var graphs []*ddg.Graph
	for _, p := range progs {
		for _, fn := range p.Funcs {
			f := fn.Clone()
			g := cfg.New(f)
			lv := cfg.ComputeLiveness(cfg.New(f))
			for _, r := range core.Form(f, g) {
				dg, err := ddg.Build(f, r, ddg.Options{Rename: true, Liveness: lv})
				if err != nil {
					b.Fatal(err)
				}
				graphs = append(graphs, dg)
			}
		}
	}
	return graphs
}

// BenchmarkColdCompileSched measures the list scheduler alone: DDGs are
// built once, then every iteration re-schedules all of them on the 4-issue
// machine with the dependence-height heuristic. Three tiers scale the rank
// space — suite regions top out near 170 nodes, stress near 170 with far
// more regions, and stress2's straight-line giants push past 4096 — so the
// bitmap queues' behaviour on large rank spaces is visible, not just the
// constant factor.
func BenchmarkColdCompileSched(b *testing.B) {
	tiers := []struct {
		name  string
		progs func(b *testing.B) []*Program
	}{
		{"suite", func(b *testing.B) []*Program { return sharedSuite(b).Programs }},
		{"stress", func(b *testing.B) []*Program { return benchProgram(b, "stress") }},
		{"stress2", func(b *testing.B) []*Program { return benchProgram(b, "stress2") }},
	}
	prio := core.DepHeight.Keys
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			graphs := schedGraphs(b, tier.progs(b))
			var sc sched.Scratch
			schedule := func() {
				for _, g := range graphs {
					if s := sched.ListScheduleScratch(g, machine.FourU, prio, nil, &sc); s.Length == 0 && len(g.Nodes) > 0 {
						b.Fatal("empty schedule")
					}
				}
			}
			schedule() // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				schedule()
			}
		})
	}
}

// benchProgram generates one named progen benchmark for a stress tier.
func benchProgram(b *testing.B, name string) []*Program {
	b.Helper()
	p, err := GenerateBenchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	return []*Program{p}
}
