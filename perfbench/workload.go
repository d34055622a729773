package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treegion"
	"treegion/internal/eval"
	"treegion/internal/irtext"
	"treegion/internal/progen"
)

// workload is one input set plus the share of the run each section gets.
// Every workload runs both sections, so every end-to-end metric is measured
// on every workload; what differs is the programs, the configuration and
// where the run's time goes.
type workload struct {
	name string
	// batchShare is the share of --seconds the in-process batch section
	// gets; the daemon section gets the rest.
	batchShare float64
	// batch lists the functions the batch section compiles cold, by preset;
	// nil indices mean the whole preset.
	batch []pick
	// verified lists the functions the verified and warm-restart passes
	// compile (a subset of batch, so their pins are shared).
	verified []pick
	// region is the former of the batch section ("tree" or "tree-td"), as
	// the daemon names it.
	region string
	// pool lists the functions requests are drawn from, regions the
	// formers they name; trips is the profiler trip count every request
	// carries.
	pool    []pick
	regions []string
	trips   int
	// cacheMB is the daemon's memory-cache budget. On the suite pool it is
	// small enough that the cache fills early in a run, so the daemon's
	// memory levels off instead of growing with the requests served; on the
	// stress pool it holds every artifact a run makes (the cache splits its
	// budget over 32 shards, and a stress artifact is over a megabyte), so a
	// repeat is never answered from the disk store by chance.
	cacheMB int
	// plainReps is how many cold plain compiles a batch round runs per
	// verified compile.
	plainReps int
	// hitTail and missTail are the fixed percentiles reported as
	// hit_tail_ms and miss_tail_ms: the highest that leave at least ten
	// samples beyond them at the default run length.
	hitTail, missTail float64
}

// pick names functions of one preset by index.
type pick struct {
	preset string
	funcs  []int
}

func suitePicks() []pick {
	var out []pick
	for _, name := range treegion.Benchmarks() {
		out = append(out, pick{preset: name})
	}
	return out
}

var workloads = []workload{
	{
		name:       "suite",
		batchShare: 0.6,
		cacheMB:    64,
		plainReps:  3,
		batch:      suitePicks(),
		verified:   suitePicks(),
		region:     "tree",
		pool:       suitePicks(),
		regions:    []string{"tree", "tree-td"},
		trips:      100,
		hitTail:    99, missTail: 97,
	},
	{
		// Five mid-sized stress functions and two stress2 functions (with
		// stress2's 60000-op function, the scheduler's big-region case) keep
		// a cold round under a second on two cores, so a run holds about ten
		// rounds. The verified slice is one small stress function, as
		// verification costs four times the compile.
		name:       "stress",
		batchShare: 0.5,
		cacheMB:    512,
		plainReps:  1,
		batch: []pick{
			{preset: "stress", funcs: []int{0, 4, 12, 16, 20}},
			{preset: "stress2", funcs: []int{0, 5}},
		},
		verified: []pick{{preset: "stress", funcs: []int{16}}},
		region:   "tree",
		pool:     []pick{{preset: "stress", funcs: []int{11, 15, 16, 19}}},
		regions:  []string{"tree"},
		trips:    12,
		hitTail:  90, missTail: 80,
	},
	{
		name:       "serve",
		batchShare: 0.35,
		cacheMB:    64,
		plainReps:  2,
		batch:      suitePicks(),
		verified:   []pick{{preset: "compress"}, {preset: "ijpeg"}, {preset: "li"}, {preset: "vortex"}},
		region:     "tree-td",
		pool:       suitePicks(),
		regions:    []string{"tree", "tree-td"},
		trips:      100,
		hitTail:    99, missTail: 98,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// program is one batch input: the picked functions of a preset with their
// preset profiles (profiled with the preset seed and index, so a subset
// compiles exactly as it does inside the whole preset).
type program struct {
	prog  *treegion.Program
	profs treegion.Profiles
}

// poolFunc is one function requests can carry, as the IR text the daemon
// parses.
type poolFunc struct {
	name string
	ir   string
}

// env is the state one setup builds: inputs, the warm store and the
// daemon.
type env struct {
	w        *workload
	cfg      treegion.Config
	batch    []program
	verified []program
	pool     []poolFunc
	storeDir string
	daemon   *daemon

	genS, profileS, storeS, daemonS float64
}

// setup builds every input of a run, populates the warm store with a
// verified compile of the verified set, and starts the daemon on a fresh
// store. Nothing in it depends on --seed: the seed only draws the request
// streams and the compile order.
func setup(w *workload, dir, daemonBin string, workers int) (*env, error) {
	e := &env{w: w}
	var err error
	if e.cfg, err = batchConfig(w.region); err != nil {
		return nil, err
	}
	t0 := time.Now()
	gen := map[string]*progen.Program{}
	for _, ps := range [][]pick{w.batch, w.verified, w.pool} {
		for _, p := range ps {
			if gen[p.preset] != nil {
				continue
			}
			pr, ok := progen.PresetByName(p.preset)
			if !ok {
				return nil, fmt.Errorf("unknown preset %q", p.preset)
			}
			if gen[p.preset], err = progen.Generate(pr); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range w.pool {
		prog := gen[p.preset]
		for _, i := range p.indices(len(prog.Funcs)) {
			e.pool = append(e.pool, poolFunc{name: prog.Funcs[i].Name, ir: irtext.Print(prog.Funcs[i])})
		}
	}
	e.genS = time.Since(t0).Seconds()

	t0 = time.Now()
	profs := map[string]eval.Profiles{}
	for _, ps := range [][]pick{w.batch, w.verified} {
		for _, p := range ps {
			if profs[p.preset] != nil {
				continue
			}
			if profs[p.preset], err = eval.ProfileProgram(gen[p.preset]); err != nil {
				return nil, err
			}
		}
	}
	e.batch = subset(w.batch, gen, profs)
	e.verified = subset(w.verified, gen, profs)
	e.profileS = time.Since(t0).Seconds()

	t0 = time.Now()
	e.storeDir = filepath.Join(dir, "store")
	if err := populateStore(e.storeDir, e.verified, e.cfg, workers); err != nil {
		return nil, err
	}
	e.storeS = time.Since(t0).Seconds()

	t0 = time.Now()
	if e.daemon, err = startDaemon(daemonBin, filepath.Join(dir, "daemon"), workers, w.cacheMB); err != nil {
		return nil, err
	}
	e.daemonS = time.Since(t0).Seconds()
	return e, nil
}

// close stops the daemon. It returns the daemon's shutdown error.
func (e *env) close() error {
	if e.daemon == nil {
		return nil
	}
	err := e.daemon.stop()
	e.daemon = nil
	return err
}

func (e *env) setupS() float64 { return e.genS + e.profileS + e.storeS + e.daemonS }

func (p pick) indices(n int) []int {
	if p.funcs != nil {
		return p.funcs
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func subset(ps []pick, gen map[string]*progen.Program, profs map[string]eval.Profiles) []program {
	var out []program
	for _, p := range ps {
		full, fp := gen[p.preset], profs[p.preset]
		sub := program{prog: &treegion.Program{Name: full.Name, Preset: full.Preset}}
		for _, i := range p.indices(len(full.Funcs)) {
			sub.prog.Funcs = append(sub.prog.Funcs, full.Funcs[i])
			sub.profs = append(sub.profs, fp[i])
		}
		out = append(out, sub)
	}
	return out
}

// populateStore compiles progs verified into a fresh artifact store, so a
// restart over it finds every artifact and verdict on disk.
func populateStore(dir string, progs []program, c treegion.Config, workers int) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := treegion.OpenArtifactStore(dir, 0)
	if err != nil {
		return err
	}
	cache := treegion.NewCompileCache(0)
	cache.SetL2(st)
	for _, p := range progs {
		if _, err := treegion.Compile(bg, p.prog, p.profs, c,
			treegion.WithWorkers(workers), treegion.WithCache(cache), treegion.WithVerify()); err != nil {
			st.Close()
			return fmt.Errorf("populate store: %w", err)
		}
	}
	return st.Close()
}

// batchConfig is DefaultConfig with the region former swapped in, and
// dominator parallelism on for tree-td as the daemon sets it.
func batchConfig(region string) (treegion.Config, error) {
	kind, err := treegion.ParseRegionKind(region)
	if err != nil {
		return treegion.Config{}, err
	}
	c := treegion.DefaultConfig()
	c.Kind = kind
	c.DominatorParallelism = kind == treegion.TreegionTD
	return c, nil
}

// regionConfig is the configuration the daemon builds for a request naming
// only its region former (cmd/treegiond configFrom with every other field
// at its default), so in-process compiles and requests agree.
func regionConfig(region string) (treegion.Config, error) {
	kind, err := treegion.ParseRegionKind(region)
	if err != nil {
		return treegion.Config{}, err
	}
	return treegion.Config{
		Kind:                 kind,
		Heuristic:            treegion.GlobalWeight,
		Machine:              treegion.FourU,
		Rename:               true,
		DominatorParallelism: kind == treegion.TreegionTD,
		TD:                   treegion.TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4},
	}, nil
}
