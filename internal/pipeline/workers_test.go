package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"treegion/internal/compcache"
	"treegion/internal/eval"
	"treegion/internal/ir"
	"treegion/internal/profile"
)

// goroutineID reads the running goroutine's ID from its stack header
// ("goroutine 17 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// Every index in [0, n) must be compiled exactly once at any worker count —
// the pipeline's correctness reduces to this — on at most min(workers, n)
// goroutines, the caller's among them, so one worker starts no goroutine.
func TestCompileManyCompilesEachIndexOnce(t *testing.T) {
	orig := compileFunc
	defer func() { compileFunc = orig }()
	caller := goroutineID()
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			fns := make([]*ir.Function, n)
			profs := make([]*profile.Data, n)
			index := make(map[string]int, n)
			for i := range fns {
				fns[i] = ir.NewFunction(fmt.Sprintf("f%d", i))
				profs[i] = profile.New()
				index[fns[i].Name] = i
			}
			var mu sync.Mutex
			counts := make([]int, n)
			goroutines := map[string]bool{}
			compileFunc = func(fn *ir.Function, prof *profile.Data, c eval.Config, ar *eval.Arena) (*eval.FunctionResult, error) {
				mu.Lock()
				defer mu.Unlock()
				counts[index[fn.Name]]++
				goroutines[goroutineID()] = true
				return &eval.FunctionResult{Fn: fn}, nil
			}
			frs := make([]*eval.FunctionResult, n)
			errs := make([]error, n)
			compileMany(context.Background(), fns, profs, eval.DefaultConfig(), Options{Workers: workers}, frs, errs, nil, nil)
			for i, c := range counts {
				if c != 1 || errs[i] != nil || frs[i] == nil || frs[i].Fn.Name != fns[i].Name {
					t.Fatalf("workers=%d n=%d: index %d compiled %d times (err %v)", workers, n, i, c, errs[i])
				}
			}
			if len(goroutines) > min(workers, n) {
				t.Errorf("workers=%d n=%d: compiled on %d goroutines", workers, n, len(goroutines))
			}
			if workers == 1 && n > 0 && (len(goroutines) != 1 || !goroutines[caller]) {
				t.Errorf("workers=1 n=%d: compiled off the caller's goroutine %s: %v", n, caller, goroutines)
			}
		}
	}
}

// CompileEach must deliver every result exactly once, in index order, with
// the same content the batch compiler produces, at any worker count.
func TestCompileEachOrderedAndComplete(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()

	want, err := CompileProgram(context.Background(), prog, profs, cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		var order []int
		var got []*eval.FunctionResult
		err := CompileEach(context.Background(), prog.Funcs, profs, cfg,
			Options{Workers: workers},
			func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
				if cerr != nil {
					t.Fatalf("workers=%d: function %d: %v", workers, i, cerr)
				}
				if cached {
					t.Fatalf("workers=%d: spurious cache hit without a cache", workers)
				}
				order = append(order, i)
				got = append(got, fr)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(order) != len(prog.Funcs) {
			t.Fatalf("workers=%d: %d results for %d functions", workers, len(order), len(prog.Funcs))
		}
		for i, idx := range order {
			if i != idx {
				t.Fatalf("workers=%d: results out of order: %v", workers, order)
			}
		}
		streamed := eval.Aggregate(prog.Name, cfg, got)
		if !reflect.DeepEqual(project(streamed), project(want)) {
			t.Errorf("workers=%d: streamed results differ from batch compile", workers)
		}
	}
}

// An emit error must stop the stream: no later emits, and the error comes
// back from CompileEach.
func TestCompileEachEmitErrorStops(t *testing.T) {
	prog, profs := testProgram(t)
	sentinel := errors.New("client gone")
	calls := 0
	err := CompileEach(context.Background(), prog.Funcs, profs,
		eval.DefaultConfig(), Options{Workers: 4},
		func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
			calls++
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing on the first call", calls)
	}
}

// CompileEach must report cache hits: a second pass over the same inputs
// with a shared cache serves every function from it.
func TestCompileEachCacheHits(t *testing.T) {
	prog, profs := testProgram(t)
	cfg := eval.DefaultConfig()
	opts := Options{Workers: 2, Cache: compcache.New(32 << 20)}
	run := func() (hits int) {
		err := CompileEach(context.Background(), prog.Funcs, profs, cfg, opts,
			func(i int, fr *eval.FunctionResult, cached bool, cerr error) error {
				if cerr != nil {
					t.Fatal(cerr)
				}
				if cached {
					hits++
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	if hits := run(); hits != 0 {
		t.Fatalf("first pass: %d cache hits, want 0", hits)
	}
	if hits := run(); hits != len(prog.Funcs) {
		t.Fatalf("second pass: %d cache hits, want %d", hits, len(prog.Funcs))
	}
}
