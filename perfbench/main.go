// Command perfbench is the repository's benchmark: three workloads over the
// treegion compiler and the treegiond daemon, each measured end to end from
// outside (treegion.Compile, and HTTP against a treegiond built from the
// same tree), with every output checked. A separate traced run replays the
// compiles through each layer's public calls and prints budget tables whose
// layer self times plus an explicit residual add up to the wall time.
//
// It is normally started through run.sh, which builds it and treegiond:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
//
// --seconds is required; BENCHMARK.json's run_seconds is the run length
// the workloads' tail percentiles were chosen for. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics with --trace 0, the per-layer ones with
// --trace 1). Tables go to standard output before it, among them the
// attempted, succeeded and failed operations of every phase. The exit code
// is 1 when any output check failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// warmReps is how many warm restarts a batch round runs.
const warmReps = 3

func main() {
	workloadName := flag.String("workload", "", "workload: suite, stress or serve")
	seed := flag.Uint64("seed", 1, "workload seed (request streams and compile order)")
	seconds := flag.Float64("seconds", 0, "measured seconds, split between the batch and daemon sections (required)")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	daemonBin := flag.String("daemon", "", "treegiond binary")
	workDir := flag.String("workdir", "", "scratch directory for stores and daemon state")
	writePins := flag.String("write-pins", "", "compile every workload's batch set and write the pins file here, then exit")
	flag.Parse()

	if *writePins != "" {
		if err := pinAll(*writePins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil || *daemonBin == "" || *workDir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon BIN -workdir DIR --workload suite|stress|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var pins map[string]map[string]float64
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pins.json:", err)
		os.Exit(2)
	}
	code, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *daemonBin, *workDir, pins[w.name])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w *workload, seed uint64, seconds time.Duration, traced bool, daemonBin, workDir string, pins map[string]float64) (int, error) {
	workers := runtime.NumCPU()
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set up several times and keep the last; setup_s is the median.
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				fmt.Printf("treegiond drain: %v\n", err)
			}
		}
		runtime.GC()
		var err error
		if e, err = setup(w, filepath.Join(dir, fmt.Sprint(i)), daemonBin, workers); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, e.setupS())
	}
	defer e.close()
	fmt.Printf("workload %s seed %d\n", w.name, seed)
	fmt.Printf("setup: median of %d %.3f s; last %.3f s = generate %.3f + profile %.3f + store %.3f + daemon %.3f\n",
		setups, median(setupTimes), setupTimes[len(setupTimes)-1], e.genS, e.profileS, e.storeS, e.daemonS)

	rng := rand.New(rand.NewPCG(seed, 0x7265656267)) // compile order
	batchBudget := time.Duration(float64(seconds) * w.batchShare)
	serveBudget := seconds - batchBudget
	out := result{Metrics: map[string]metric{}}
	var ops ledger
	var br *batchResult
	var bt *batchTrace
	if traced {
		bt = traceBatch(e, workers, pins, &ops)
	} else {
		br = runBatch(e, batchBudget, rng, workers, pins, &ops)
	}
	sr, err := runServe(e, serveBudget, seed, workers)
	if err != nil {
		return 0, err
	}
	sr.checkResponses(e, workers, &ops)
	fmt.Printf("serve self-check: %s\n", sr.selfNote)
	fmt.Printf("daemon cache: %.0f entries, %.1f MB resident, %.0f evictions, %.0f store hits\n",
		sr.after["treegiond_cache_entries"], sr.after["treegiond_cache_bytes"]/(1<<20),
		sr.after["treegiond_cache_evictions_total"], sr.after["treegiond_store_hits_total"])
	if traced {
		st := traceServe(e, sr, newBodyCache(e), ops.in("request replay"))
		perLayer(out.Metrics, e, workers, bt, sr, st)
	} else {
		endToEnd(out.Metrics, w, median(setupTimes), br, sr)
	}
	ops.print()
	total := ops.total()
	if total.failed > 0 {
		fmt.Printf("FAILED %d of %d operations:\n  %s\n", total.failed, total.attempted, strings.Join(total.msgs, "\n  "))
	}
	out.Correct = total.failed == 0
	out.Attempted, out.Failed = total.attempted, total.failed
	line, err := json.Marshal(out)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1, nil
	}
	return 0, nil
}

// endToEnd fills the twelve end-to-end metrics and prints them as a table.
func endToEnd(m map[string]metric, w *workload, setupS float64, br *batchResult, sr *serveResult) {
	var hit, miss []float64
	completed := 0
	for _, s := range sr.samples {
		l := float64(s.latency) / 1e6
		if s.err == "" {
			completed++
		}
		if s.req.cold {
			miss = append(miss, l)
		} else {
			hit = append(hit, l)
		}
	}
	// On serve, the request-path workload, the daemon is the process doing
	// the compiling. Elsewhere this process runs only the workload, and its
	// batch section is the compiling it does.
	peak := sr.peakRSS
	if w.name != "serve" {
		if v, err := vmHWM("/proc/self/status"); err == nil {
			peak = v
		}
	}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", setupS)
	set("compile_s", "s", median(br.compileS))
	set("verified_compile_s", "s", median(br.verifiedS))
	set("warm_start_s", "s", median(br.warmS))
	set("alloc_mb", "MB", median(br.allocMB))
	set("peak_rss_mb", "MB", peak)
	set("est_cycles_geomean", "cycles", br.estGeomean)
	set("hit_p50_ms", "ms", percentile(hit, 50))
	set("hit_tail_ms", "ms", percentile(hit, w.hitTail))
	set("miss_p50_ms", "ms", percentile(miss, 50))
	set("miss_tail_ms", "ms", percentile(miss, w.missTail))
	set("req_per_s", "1/s", float64(completed)/sr.elapsed.Seconds())

	fmt.Printf("batch: %d rounds; daemon: %d requests (%d hits, %d misses) in %.2f s\n",
		br.rounds, len(sr.samples), len(hit), len(miss), sr.elapsed.Seconds())
	fmt.Printf("rounds: compile_s %.4f\n        verified_compile_s %.4f\n        warm_start_s %.4f\n",
		br.compileS, br.verifiedS, br.warmS)
	fmt.Printf("tails: hit p%g leaves %d samples beyond it, miss p%g leaves %d\n",
		w.hitTail, beyond(len(hit), w.hitTail), w.missTail, beyond(len(miss), w.missTail))
	printMetrics(m)
}

// perLayer fills the per-layer metrics of a traced run and prints the
// budget tables they come from.
func perLayer(m map[string]metric, e *env, workers int, bt *batchTrace, sr *serveResult, st *serveTrace) {
	out := os.Stdout
	fmt.Fprintf(out, "setup layers: progen.gen %.3f s, interp.profile (preset profiles) %.3f s\n", e.genS, e.profileS)
	plainResidual := printBudget(out, fmt.Sprintf("budget: plain compile replay, %d functions, serial", countFuncs(e.batch)),
		bt.plainWall, bt.plain.rows())
	printBudget(out, fmt.Sprintf("budget: verified compile replay, %d functions, serial", countFuncs(e.verified)),
		bt.verifiedWall, bt.verified.rows())
	printBudget(out, fmt.Sprintf("budget: in-process replay of %d daemon requests", len(st.residuals)),
		st.wall, []budgetRow{{"json.decode", st.decode}, {"irtext.parse", st.parse},
			{"interp.profile", st.profile}, {"compile (CompileOne)", st.compile}})
	overhead := float64(bt.plainWall-bt.serialWall) / float64(bt.serialWall)
	fmt.Fprintf(out, "\ntracing overhead: plain replay %.3f ms vs untraced serial compile %.3f ms (%+.1f%%); verified %.3f vs %.3f ms (%+.1f%%)\n",
		ms(bt.plainWall), ms(bt.serialWall), 100*overhead,
		ms(bt.verifiedWall), ms(bt.serialVWall), 100*float64(bt.verifiedWall-bt.serialVWall)/float64(bt.serialVWall))
	// Σ per-function time is the untraced serial compile's wall: one worker
	// compiles every function back to back.
	perWorker := bt.serialWall / time.Duration(workers)
	pipelineResidual := bt.parallelWall - perWorker
	fmt.Fprintf(out, "pipeline: median %d-worker compile %.3f ms, median serial compile / %d workers %.3f ms, residual %.3f ms\n",
		workers, ms(bt.parallelWall), workers, ms(perWorker), ms(pipelineResidual))
	printCrossCheck(out, bt.programTrace, &bt.plain)

	hits := sr.after["treegiond_cache_hits_total"] - sr.before["treegiond_cache_hits_total"]
	misses := sr.after["treegiond_cache_misses_total"] - sr.before["treegiond_cache_misses_total"]

	l := &bt.plain
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("progen.gen_s", "s", e.genS)
	set("interp.profile_s", "s", st.profile.Seconds())
	set("irtext.parse_s", "s", st.parse.Seconds())
	set("core.form_s", "s", l.form.Seconds())
	set("core.taildup_s", "s", l.tailDup.Seconds())
	set("cfg.liveness_s", "s", l.liveness.Seconds())
	set("ddg.build_s", "s", l.ddg.Seconds())
	set("ddg.alloc_mb", "MB", float64(l.ddgAlloc)/(1<<20))
	set("ddg.nodes", "count", float64(l.nodes))
	set("ddg.edges", "count", float64(l.edges))
	set("sched.list_s", "s", l.sched.Seconds())
	set("sched.cycles", "cycles", float64(l.cycles))
	set("eval.measure_s", "s", l.measure.Seconds())
	set("eval.measure_alloc_mb", "MB", float64(l.measureAlloc)/(1<<20))
	v := &bt.verified
	set("verify.ir_s", "s", v.vIR.Seconds())
	set("verify.rg_s", "s", v.vRG.Seconds())
	set("verify.sc_s", "s", v.vSC.Seconds())
	set("verify.sem_s", "s", v.vSEM.Seconds())
	set("verify.cl_s", "s", v.vCL.Seconds())
	set("pipeline.residual_s", "s", pipelineResidual.Seconds())
	set("compcache.hit_ratio", "ratio", hits/max(hits+misses, 1))
	set("compcache.lookup_ms", "ms", median(st.lookups))
	set("store.hits", "count", float64(bt.storeHits))
	set("store.verdict_hits", "count", float64(bt.verdictHits))
	set("treegiond.residual_ms", "ms", median(st.residuals))
	set("region.count", "count", float64(l.regions))
	set("region.ops_mean", "ops", float64(l.regionOps)/float64(max(l.regions, 1)))
	set("trace.residual_share", "share", float64(plainResidual)/float64(bt.plainWall))
	set("trace.overhead_share", "share", overhead)
	fmt.Println()
	printMetrics(m)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-24s %16s  %s\n", "metric", "value", "unit")
	for _, n := range names {
		fmt.Printf("  %-24s %16.4f  %s\n", n, m[n].Value, m[n].Unit)
	}
}

func countFuncs(ps []program) int {
	n := 0
	for _, p := range ps {
		n += len(p.prog.Funcs)
	}
	return n
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile: the smallest sample with at
// least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	return s[min(max(rank, 1), len(s))-1]
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(float64(n) * p / 100))
	return n - min(max(rank, 1), n)
}
