package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"treegion"
)

// spinLoop never returns: every profiling trip runs into the interpreter's
// 2M-step bound, so its profile fails after one trip.
const spinLoop = "func spin\nbb0:\n  r0 = movi 1\n  fallthrough @bb1\nbb1:\n  r0 = add r0, r0\n  fallthrough @bb1\n"

// loadCounts counts the request path's parses (loadIR calls) and profiles
// (profileFunc calls, by function name) while a test runs.
type loadCounts struct {
	mu       sync.Mutex
	loads    int
	profiles map[string]int
}

func countLoads(t *testing.T) *loadCounts {
	t.Helper()
	c := &loadCounts{profiles: map[string]int{}}
	origLoad, origProfile := loadIR, profileFunc
	t.Cleanup(func() { loadIR, profileFunc = origLoad, origProfile })
	loadIR = func(src string, seed uint64, trips int, resolve bool,
		profile func(*treegion.Function, uint64, int) (*treegion.ProfileData, error)) (*treegion.Program, treegion.Profiles, error) {
		c.mu.Lock()
		c.loads++
		c.mu.Unlock()
		return origLoad(src, seed, trips, resolve, profile)
	}
	profileFunc = func(fn *treegion.Function, seed uint64, trips int) (*treegion.ProfileData, error) {
		c.mu.Lock()
		c.profiles[fn.Name]++
		c.mu.Unlock()
		return origProfile(fn, seed, trips)
	}
	return c
}

// check asserts loads parses and exactly one profile for each named
// function (and none for any other), then resets the counters.
func (c *loadCounts) check(t *testing.T, name string, loads int, fns ...string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.loads != loads {
		t.Errorf("%s: %d parses, want %d", name, c.loads, loads)
	}
	want := map[string]int{}
	for _, fn := range fns {
		want[fn] = 1
	}
	for fn, n := range c.profiles {
		if n != want[fn] {
			t.Errorf("%s: %s profiled %d times, want %d", name, fn, n, want[fn])
		}
	}
	for fn := range want {
		if c.profiles[fn] == 0 {
			t.Errorf("%s: %s never profiled", name, fn)
		}
	}
	c.loads, c.profiles = 0, map[string]int{}
}

// Every request parses its source once and profiles each function once,
// whichever path it takes: one function, a failing profile, a program,
// inlining, bad IR, a batch entry, a job.
func TestOneParseAndProfilePerFunction(t *testing.T) {
	_, ts := testServer(t)
	c := countLoads(t)
	program := callpair(t)

	for _, tc := range []struct {
		name   string
		body   map[string]any
		status int
		fns    []string
	}{
		{"single function", map[string]any{"ir": fig1(t)}, http.StatusOK, []string{"fig1"}},
		{"failing profile", map[string]any{"ir": spinLoop}, http.StatusUnprocessableEntity, []string{"spin"}},
		{"program", map[string]any{"ir": program}, http.StatusOK, []string{"callpair", "pair_mix"}},
		{"inline", map[string]any{"ir": program, "inline": true}, http.StatusOK, []string{"callpair", "pair_mix"}},
		{"bad ir", map[string]any{"ir": "not a function"}, http.StatusBadRequest, nil},
	} {
		body, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		c.check(t, tc.name, 1, tc.fns...)
	}

	// A batch parses each entry once.
	i := strings.Index(program, "func pair_mix")
	body, _ := json.Marshal(map[string]any{
		"functions": []map[string]string{{"ir": program[:i]}, {"ir": program[i:]}, {"ir": fig1(t)}},
	})
	resp, err := http.Post(ts.URL+"/v1/compile-batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		lines++
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lines != 4 {
		t.Fatalf("batch: status %d, %d lines", resp.StatusCode, lines)
	}
	c.check(t, "batch", 3, "callpair", "pair_mix", "fig1")

	// A job is decoded at submission and parsed once when it runs.
	jobBody, _ := json.Marshal(map[string]any{"ir": fig1(t), "seed": 7})
	_, jr := postJob(t, ts, string(jobBody))
	pollJob(t, ts, jr.ID, "done")
	c.check(t, "job", 1, "fig1")
}

// A batch entry asking for more profiling trips than the daemon runs is
// rejected before any profiling.
func TestCompileBatchTripsBound(t *testing.T) {
	_, ts := testServer(t)
	body := `{"functions": [{"ir": "func f\nbb0:\n  ret\n"}], "trips": 1001}`
	resp, err := http.Post(ts.URL+"/v1/compile-batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if er := decodeError(t, resp); er.Error.Code != "bad_config" {
		t.Fatalf("code %q, want bad_config", er.Error.Code)
	}
}
