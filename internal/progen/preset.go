// Package progen generates synthetic benchmark programs whose control-flow
// shape and profile skew mimic the structural traits the paper reports for
// SPECint95. The paper's results are driven by CFG topology and profile
// distribution — not benchmark semantics — so each preset dials in the traits
// the paper uses to explain its data:
//
//   - gcc / perl: frequent wide, shallow multiway branches whose arm weights
//     are heavily skewed with many never-taken arms (Fig. 9) — the treegions
//     that break the exit-count heuristic;
//   - ijpeg: strongly biased two-way branches, so treegions contain a single
//     hot path (Fig. 7);
//   - vortex: long "linearized" check chains with rarely taken escape exits
//     and near-equal block weights (Fig. 10) — the treegions that hurt the
//     weighted-count heuristic;
//   - compress / li: small loopy programs; m88ksim / go: mid-sized mixes with
//     larger basic blocks.
package progen

// StructKind indexes the structure-mix weights of a Preset.
type StructKind int

// Generable control structures.
const (
	KindStraight StructKind = iota // straight-line ops appended to the block
	KindIf                         // if-then
	KindIfElse                     // if-then-else
	KindSwitch                     // multiway branch with a join
	KindLoop                       // while loop (header is a merge point)
	KindChain                      // linearized check chain with escape exits
	numKinds
)

// Preset parameterizes generation for one synthetic benchmark.
type Preset struct {
	Name string
	Seed uint64

	// NumFuncs functions are generated; function i targets roughly
	// OpsPerFunc ops (±50%, varied by the rng).
	NumFuncs   int
	OpsPerFunc int

	// BlockOpsMin/Max bound the computational ops emitted per straight-line
	// run (branch machinery — CMPP, PBR, branches — comes on top).
	BlockOpsMin, BlockOpsMax int

	// StructWeights is the relative mix of control structures.
	StructWeights [numKinds]float64

	// MaxDepth bounds structure nesting.
	MaxDepth int

	// Bias is the taken-probability given to biased two-way branches;
	// BiasedFrac is the fraction of two-way branches that are biased
	// (the rest draw uniformly from [0.2, 0.8]).
	Bias       float64
	BiasedFrac float64

	// SwitchArmsMin/Max bound multiway-branch arity. ZeroArmFrac is the
	// fraction of arms that get (near-)zero probability; the remaining
	// probability mass is split unevenly across the rest. EmptyArmFrac is
	// the fraction of arms containing no code at all (a bare "case: break"
	// or a shared handler reached through an empty block) — real switches
	// are mostly jump tables, not sixteen distinct computations.
	SwitchArmsMin, SwitchArmsMax int
	ZeroArmFrac                  float64
	EmptyArmFrac                 float64

	// LoopIterMean is the mean trip count of generated loops.
	LoopIterMean float64

	// ChainLenMin/Max bound linearized-chain length; ChainEscapeProb is the
	// per-block probability of taking the escape exit.
	ChainLenMin, ChainLenMax int
	ChainEscapeProb          float64

	// ChainFrac is the probability that an ALU op reads the most recently
	// defined register (serializing the dataflow and lowering ILP).
	ChainFrac float64

	// Operand mix.
	LoadFrac, StoreFrac, FPFrac, ImmFrac float64

	// EmitPbr controls whether branches are fed by PBR ops (PlayDoh-style
	// branch-target-register priming), as in the paper's examples.
	EmitPbr bool

	// ProfileTrips is how many interpreter trips the suite uses to profile
	// each generated function.
	ProfileTrips int

	// Call, when non-nil, switches generation to the interprocedural
	// generator (gen_calls.go): callee functions with explicit
	// parameter/return conventions are generated first, then callers that
	// invoke them from loop bodies. Legacy presets keep this nil and their
	// rng streams (and therefore every golden) are untouched.
	Call *CallSpec
}

// CallSpec parameterizes interprocedural generation. Every callee uses the
// fixed two-GPR-parameter, one-GPR-return convention, so any call site is
// arity-compatible with any callee.
type CallSpec struct {
	// Callees is the number of independent leaf callees. Ignored when
	// ChainDepth is set.
	Callees int
	// HotFrac is the probability that a call site targets callee 0; the
	// rest spread uniformly over the others (the 90/10 skew that makes
	// demand-driven inlining pay off without global code explosion).
	HotFrac float64
	// CalleeOps is the per-callee computational-op budget (branch
	// machinery comes on top, as everywhere in progen).
	CalleeOps int
	// CallsPerFunc is the number of call-bearing loops per caller.
	CallsPerFunc int
	// ChainDepth, when positive, generates a call chain instead of
	// independent leaves: callers invoke c0, c0 calls c1, ... down to the
	// leaf c<ChainDepth-1>, so fully absorbing a chain takes ChainDepth
	// levels of inlining.
	ChainDepth int
}

// Presets returns the eight SPECint95-flavoured presets, in the paper's
// table order.
func Presets() []Preset {
	return []Preset{
		{
			Name: "compress", Seed: 101,
			NumFuncs: 4, OpsPerFunc: 260,
			BlockOpsMin: 3, BlockOpsMax: 7,
			StructWeights: [numKinds]float64{KindStraight: 2, KindIf: 3, KindIfElse: 2, KindSwitch: 0.3, KindLoop: 2, KindChain: 0.2},
			MaxDepth:      3,
			Bias:          0.85, BiasedFrac: 0.6,
			SwitchArmsMin: 3, SwitchArmsMax: 5, ZeroArmFrac: 0.3, EmptyArmFrac: 0.3,
			LoopIterMean: 12,
			ChainLenMin:  3, ChainLenMax: 5, ChainEscapeProb: 0.02,
			ChainFrac: 0.75,
			LoadFrac:  0.2, StoreFrac: 0.12, FPFrac: 0.0, ImmFrac: 0.1,
			EmitPbr: true, ProfileTrips: 120,
		},
		{
			Name: "gcc", Seed: 102,
			NumFuncs: 10, OpsPerFunc: 900,
			BlockOpsMin: 3, BlockOpsMax: 8,
			StructWeights: [numKinds]float64{KindStraight: 2, KindIf: 2.5, KindIfElse: 2, KindSwitch: 1.0, KindLoop: 1, KindChain: 0.3},
			MaxDepth:      4,
			Bias:          0.9, BiasedFrac: 0.65,
			SwitchArmsMin: 5, SwitchArmsMax: 13, ZeroArmFrac: 0.7, EmptyArmFrac: 0.55,
			LoopIterMean: 8,
			ChainLenMin:  3, ChainLenMax: 6, ChainEscapeProb: 0.02,
			ChainFrac: 0.72,
			LoadFrac:  0.22, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.12,
			EmitPbr: true, ProfileTrips: 60,
		},
		{
			Name: "go", Seed: 103,
			NumFuncs: 8, OpsPerFunc: 700,
			BlockOpsMin: 3, BlockOpsMax: 8,
			StructWeights: [numKinds]float64{KindStraight: 2, KindIf: 3, KindIfElse: 2.5, KindSwitch: 1, KindLoop: 1.2, KindChain: 0.3},
			MaxDepth:      4,
			Bias:          0.75, BiasedFrac: 0.5,
			SwitchArmsMin: 4, SwitchArmsMax: 9, ZeroArmFrac: 0.4, EmptyArmFrac: 0.4,
			LoopIterMean: 10,
			ChainLenMin:  3, ChainLenMax: 6, ChainEscapeProb: 0.03,
			ChainFrac: 0.75,
			LoadFrac:  0.2, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.12,
			EmitPbr: true, ProfileTrips: 70,
		},
		{
			Name: "ijpeg", Seed: 104,
			NumFuncs: 6, OpsPerFunc: 520,
			BlockOpsMin: 3, BlockOpsMax: 8,
			StructWeights: [numKinds]float64{KindStraight: 2.5, KindIf: 3, KindIfElse: 1.5, KindSwitch: 0.4, KindLoop: 2.2, KindChain: 0.2},
			MaxDepth:      3,
			Bias:          0.985, BiasedFrac: 0.88,
			SwitchArmsMin: 3, SwitchArmsMax: 5, ZeroArmFrac: 0.5, EmptyArmFrac: 0.4,
			LoopIterMean: 25,
			ChainLenMin:  3, ChainLenMax: 5, ChainEscapeProb: 0.01,
			ChainFrac: 0.68,
			LoadFrac:  0.25, StoreFrac: 0.14, FPFrac: 0.06, ImmFrac: 0.08,
			EmitPbr: true, ProfileTrips: 60,
		},
		{
			Name: "li", Seed: 105,
			NumFuncs: 6, OpsPerFunc: 380,
			BlockOpsMin: 2, BlockOpsMax: 6,
			StructWeights: [numKinds]float64{KindStraight: 2, KindIf: 3, KindIfElse: 2.2, KindSwitch: 0.8, KindLoop: 1.5, KindChain: 0.3},
			MaxDepth:      3,
			Bias:          0.8, BiasedFrac: 0.55,
			SwitchArmsMin: 3, SwitchArmsMax: 6, ZeroArmFrac: 0.4, EmptyArmFrac: 0.4,
			LoopIterMean: 9,
			ChainLenMin:  3, ChainLenMax: 5, ChainEscapeProb: 0.03,
			ChainFrac: 0.78,
			LoadFrac:  0.24, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.12,
			EmitPbr: true, ProfileTrips: 80,
		},
		{
			Name: "m88ksim", Seed: 106,
			NumFuncs: 7, OpsPerFunc: 640,
			BlockOpsMin: 5, BlockOpsMax: 10,
			StructWeights: [numKinds]float64{KindStraight: 2.5, KindIf: 3, KindIfElse: 2.2, KindSwitch: 1.2, KindLoop: 1.4, KindChain: 0.3},
			MaxDepth:      4,
			Bias:          0.88, BiasedFrac: 0.6,
			SwitchArmsMin: 4, SwitchArmsMax: 10, ZeroArmFrac: 0.45, EmptyArmFrac: 0.4,
			LoopIterMean: 12,
			ChainLenMin:  3, ChainLenMax: 6, ChainEscapeProb: 0.02,
			ChainFrac: 0.72,
			LoadFrac:  0.2, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.1,
			EmitPbr: true, ProfileTrips: 70,
		},
		{
			Name: "perl", Seed: 107,
			NumFuncs: 8, OpsPerFunc: 780,
			BlockOpsMin: 3, BlockOpsMax: 9,
			StructWeights: [numKinds]float64{KindStraight: 2, KindIf: 2.2, KindIfElse: 1.8, KindSwitch: 1.1, KindLoop: 1, KindChain: 0.3},
			MaxDepth:      4,
			Bias:          0.9, BiasedFrac: 0.65,
			SwitchArmsMin: 6, SwitchArmsMax: 16, ZeroArmFrac: 0.75, EmptyArmFrac: 0.6,
			LoopIterMean: 8,
			ChainLenMin:  3, ChainLenMax: 6, ChainEscapeProb: 0.02,
			ChainFrac: 0.72,
			LoadFrac:  0.22, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.12,
			EmitPbr: true, ProfileTrips: 60,
		},
		{
			Name: "vortex", Seed: 108,
			NumFuncs: 7, OpsPerFunc: 620,
			BlockOpsMin: 6, BlockOpsMax: 13,
			StructWeights: [numKinds]float64{KindStraight: 2.5, KindIf: 1.8, KindIfElse: 1.2, KindSwitch: 0.6, KindLoop: 1, KindChain: 3},
			MaxDepth:      3,
			Bias:          0.9, BiasedFrac: 0.6,
			SwitchArmsMin: 3, SwitchArmsMax: 6, ZeroArmFrac: 0.4, EmptyArmFrac: 0.4,
			LoopIterMean: 10,
			ChainLenMin:  5, ChainLenMax: 10, ChainEscapeProb: 0.006,
			ChainFrac: 0.68,
			LoadFrac:  0.2, StoreFrac: 0.12, FPFrac: 0.0, ImmFrac: 0.1,
			EmitPbr: true, ProfileTrips: 70,
		},
	}
}

// Stress returns the scale-out stress preset: an order of magnitude more
// ops per function than the largest suite benchmark and three times as
// many functions, built to saturate the pipeline's worker pool and
// the shard router under load. It is deliberately NOT part of Presets():
// the eight-benchmark suite is pinned by goldens and the paper's tables,
// while stress exists only for benchmarks and load generation (reachable
// through PresetByName("stress")). ProfileTrips is kept low — profiling a
// 7000-op function 12 times already dwarfs a suite benchmark's work.
func Stress() Preset {
	return Preset{
		Name: "stress", Seed: 901,
		NumFuncs: 24, OpsPerFunc: 7000,
		BlockOpsMin: 4, BlockOpsMax: 10,
		StructWeights: [numKinds]float64{KindStraight: 2, KindIf: 2.5, KindIfElse: 2, KindSwitch: 1, KindLoop: 1.2, KindChain: 0.5},
		MaxDepth:      5,
		Bias:          0.88, BiasedFrac: 0.6,
		SwitchArmsMin: 4, SwitchArmsMax: 12, ZeroArmFrac: 0.5, EmptyArmFrac: 0.45,
		LoopIterMean: 10,
		ChainLenMin:  3, ChainLenMax: 7, ChainEscapeProb: 0.02,
		ChainFrac: 0.72,
		LoadFrac:  0.22, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.1,
		EmitPbr: true, ProfileTrips: 12,
	}
}

// Stress2 returns the asymptotic stress tier: functions another 5-6× past
// stress (roughly 40-150× the suite presets), built from enormous
// straight-line blocks (512-1536 ops against stress's 4-10) with a much
// lower ChainFrac so dataflow stays wide. Treegions split at merge points,
// so region size — the scheduler's rank space — is set by block size, not
// function size: stress regions top out near 170 nodes, stress2 regions
// near 10000, with dozens past 4096 (a three-level bitmap). That is
// exactly the shape where ready-set churn dominates and asymptotic wins
// (the CLZ bitmap queues vs. the O(log n) heaps) separate from
// constant-factor ones. Like Stress it is NOT part of Presets() — the
// suite and its goldens stay pinned — and is reachable only through
// PresetByName("stress2"). ProfileTrips is minimal: one 40000-op function
// dwarfs an entire suite benchmark.
func Stress2() Preset {
	return Preset{
		Name: "stress2", Seed: 902,
		NumFuncs: 6, OpsPerFunc: 40000,
		BlockOpsMin: 512, BlockOpsMax: 1536,
		StructWeights: [numKinds]float64{KindStraight: 8, KindIf: 2.5, KindIfElse: 2, KindSwitch: 1, KindLoop: 0.2, KindChain: 0.5},
		MaxDepth:      2,
		Bias:          0.88, BiasedFrac: 0.6,
		SwitchArmsMin: 4, SwitchArmsMax: 12, ZeroArmFrac: 0.5, EmptyArmFrac: 0.45,
		LoopIterMean: 10,
		ChainLenMin:  3, ChainLenMax: 7, ChainEscapeProb: 0.02,
		ChainFrac: 0.35,
		LoadFrac:  0.22, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.1,
		EmitPbr: true, ProfileTrips: 4,
	}
}

// CallHot returns the skewed interprocedural preset: callers whose loop
// bodies call one of four leaf callees, with 90% of the call sites aimed at
// the hot callee 0. It is the benchmark the demand-driven inliner is judged
// on — inline-on should roughly flatten the hot loops into call-free
// treegions while the cold callees stay behind barriers. Like Stress it is
// NOT part of Presets(): the eight-benchmark suite is pinned by goldens.
func CallHot() Preset {
	return Preset{
		Name: "callhot", Seed: 701,
		NumFuncs: 5, OpsPerFunc: 90,
		BlockOpsMin: 3, BlockOpsMax: 6,
		StructWeights: [numKinds]float64{KindStraight: 2.5, KindIf: 2, KindIfElse: 1},
		MaxDepth:      2,
		Bias:          0.9, BiasedFrac: 0.6,
		SwitchArmsMin: 3, SwitchArmsMax: 4, ZeroArmFrac: 0.3, EmptyArmFrac: 0.3,
		LoopIterMean: 12,
		ChainLenMin:  3, ChainLenMax: 4, ChainEscapeProb: 0.02,
		ChainFrac: 0.6,
		LoadFrac:  0.18, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.1,
		EmitPbr: true, ProfileTrips: 60,
		Call: &CallSpec{Callees: 4, HotFrac: 0.9, CalleeOps: 18, CallsPerFunc: 5},
	}
}

// CallDeep returns the chained interprocedural preset: callers invoke c0,
// which calls c1, which calls the leaf c2 — a depth-3 chain that exactly
// meets the inliner's default MaxDepth, exercising recursion-depth
// accounting and the per-function expansion budget. Reachable only through
// PresetByName("calldeep").
func CallDeep() Preset {
	return Preset{
		Name: "calldeep", Seed: 702,
		NumFuncs: 4, OpsPerFunc: 70,
		BlockOpsMin: 3, BlockOpsMax: 6,
		StructWeights: [numKinds]float64{KindStraight: 2.5, KindIf: 2, KindIfElse: 1},
		MaxDepth:      2,
		Bias:          0.88, BiasedFrac: 0.6,
		SwitchArmsMin: 3, SwitchArmsMax: 4, ZeroArmFrac: 0.3, EmptyArmFrac: 0.3,
		LoopIterMean: 10,
		ChainLenMin:  3, ChainLenMax: 4, ChainEscapeProb: 0.02,
		ChainFrac: 0.6,
		LoadFrac:  0.18, StoreFrac: 0.1, FPFrac: 0.0, ImmFrac: 0.1,
		EmitPbr: true, ProfileTrips: 60,
		Call: &CallSpec{ChainDepth: 3, HotFrac: 1, CalleeOps: 14, CallsPerFunc: 4},
	}
}

// PresetByName returns the preset with the given name, or false. "stress",
// "stress2", "callhot" and "calldeep" resolve to the out-of-suite presets.
func PresetByName(name string) (Preset, bool) {
	switch name {
	case "stress":
		return Stress(), true
	case "stress2":
		return Stress2(), true
	case "callhot":
		return CallHot(), true
	case "calldeep":
		return CallDeep(), true
	}
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}
