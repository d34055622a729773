package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"treegion"
)

// requestTimeout bounds one request. A request that exceeds it fails, and
// a failed request enters the latency samples at this value, so it counts
// against every latency limit instead of dropping out.
const requestTimeout = 60 * time.Second

// hitWindow is how many of a client's latest cold requests of each kind a
// repeat draws from.
const hitWindow = 8

// unit is the cache identity of a request: function, former and profile
// seed. verify is not part of it, as it is not part of the daemon's key.
type unit struct {
	fn     int
	region string
	seed   uint64
}

type request struct {
	unit
	verify bool
	cold   bool // designed to miss: a fresh profile seed
}

// stream draws one client's closed-loop request sequence. Request k is cold
// when k%4 == 0: a profile seed no other request uses, on the next entry of
// a seed-shuffled cycle in which every (function, former) pair of the pool
// appears three times, once verified. Every client shuffles the same cycle
// and takes every nclients-th entry from its own offset, so between them the
// clients walk whole cycles and the mix of cold requests is the same for
// every seed. The other requests repeat one of the client's last hitWindow
// verified cold requests with probability 5/9, else one of its last
// hitWindow plain ones, so half of all requests verify. A client has always
// completed the request it repeats, so a designed hit can only miss if the
// daemon failed to cache; repeating recent requests keeps hits in the
// daemon's memory tier once its cache is full, as a build system
// re-requesting its current files would.
//
// The 1/3 and 5/9 shares put the verified misses in the upper part of the
// miss distribution, so miss_p50 sits inside the plain misses instead of at
// the boundary between two modes, and miss_tail inside the verified ones.
type stream struct {
	seed             uint64
	rng              *rand.Rand
	client, nclients int
	cycle            []request
	cycles, next     int
	cold             int
	verified, plain  []request
	k                int
}

func newStream(seed uint64, client, nclients, poolSize int, regions []string) *stream {
	s := &stream{seed: seed, rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), client: client, nclients: nclients}
	for fn := 0; fn < poolSize; fn++ {
		for _, r := range regions {
			for _, v := range []bool{true, false, false} {
				s.cycle = append(s.cycle, request{unit: unit{fn: fn, region: r}, verify: v, cold: true})
			}
		}
	}
	s.next = len(s.cycle)
	return s
}

func (s *stream) draw() request {
	k := s.k
	s.k++
	if k%4 == 0 || len(s.verified)+len(s.plain) == 0 {
		if s.next >= len(s.cycle) {
			// The same seed and cycle number give every client the same
			// permutation.
			shuffle := rand.New(rand.NewPCG(s.seed, uint64(s.cycles)))
			shuffle.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
			s.cycles++
			s.next = s.client
		}
		r := s.cycle[s.next]
		s.next += s.nclients
		// Seeds are unique per (client, cold index) and never 0, which the
		// daemon maps to 1.
		r.seed = uint64(s.client+1)<<40 | uint64(s.cold+1)
		s.cold++
		if r.verify {
			s.verified = append(s.verified, r)
		} else {
			s.plain = append(s.plain, r)
		}
		return r
	}
	from := s.plain
	if len(s.verified) > 0 && (len(s.plain) == 0 || s.rng.IntN(9) < 5) {
		from = s.verified
	}
	r := from[len(from)-1-s.rng.IntN(min(len(from), hitWindow))]
	r.cold = false
	return r
}

// sample is one completed (or failed) request.
type sample struct {
	req     request
	latency time.Duration
	err     string
	resp    compileResponse
}

// compileResponse is the part of the daemon's reply the checks read.
type compileResponse struct {
	Time        float64  `json:"time_cycles"`
	Cached      bool     `json:"cached"`
	Verified    bool     `json:"verified"`
	Diagnostics []string `json:"diagnostics"`
}

type compileRequest struct {
	IR     string `json:"ir"`
	Region string `json:"region"`
	Seed   uint64 `json:"seed"`
	Trips  int    `json:"trips"`
	Verify bool   `json:"verify"`
}

// serveResult is the daemon section's outcome.
type serveResult struct {
	samples  []sample
	elapsed  time.Duration
	before   map[string]float64
	after    map[string]float64
	peakRSS  float64
	selfOK   bool
	selfNote string
}

// runServe drives nclients closed-loop clients against the daemon for
// budget, then lets every in-flight request finish: nothing is cut off.
func runServe(e *env, budget time.Duration, seed uint64, nclients int) (*serveResult, error) {
	res := &serveResult{}
	var err error
	if res.before, err = e.daemon.counters(); err != nil {
		return nil, err
	}
	client := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: nclients, MaxConnsPerHost: nclients},
	}
	defer client.CloseIdleConnections()
	bodies := newBodyCache(e)
	per := make([][]sample, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := newStream(seed, c, nclients, len(e.pool), e.w.regions)
			for time.Now().Before(deadline) {
				req := st.draw()
				per[c] = append(per[c], send(client, e.daemon.base, bodies.get(req), req))
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	if res.after, err = e.daemon.counters(); err != nil {
		return nil, err
	}
	if res.peakRSS, err = e.daemon.peakRSSMB(); err != nil {
		return nil, err
	}
	res.selfCheck()
	return res, nil
}

func send(client *http.Client, base string, body []byte, req request) sample {
	s := sample{req: req}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		s.latency, s.err = requestTimeout, err.Error()
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(t0)
	switch {
	case err != nil:
		s.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	default:
		if err := json.Unmarshal(data, &s.resp); err != nil {
			s.err = fmt.Sprintf("decode response: %v", err)
		}
	}
	if s.err != "" {
		s.latency = requestTimeout
	}
	return s
}

// bodyCache encodes each distinct request body once, so the client's own
// JSON encoding stays out of the measured latency as far as possible.
type bodyCache struct {
	e  *env
	mu sync.Mutex
	m  map[request][]byte
}

func newBodyCache(e *env) *bodyCache { return &bodyCache{e: e, m: map[request][]byte{}} }

func (b *bodyCache) get(r request) []byte {
	key := r
	key.cold = false
	b.mu.Lock()
	defer b.mu.Unlock()
	if body, ok := b.m[key]; ok {
		return body
	}
	body, err := json.Marshal(compileRequest{IR: b.e.pool[r.fn].ir, Region: r.region, Seed: r.seed, Trips: b.e.w.trips, Verify: r.verify})
	if err != nil {
		panic(err) // a struct of strings, numbers and bools always encodes
	}
	b.m[key] = body
	return body
}

// selfCheck confirms the workload did what it claims: the daemon compiled
// exactly the designed cold requests, its cache counters moved by exactly
// the designed cold requests and repeats, and every response's cached flag
// matches its design. The memory tier counts a lookup answered from the
// disk store as a miss, so store hits move from its misses to its hits. A
// failed request may or may not have reached the cache, so each one widens
// the allowed difference by one.
func (r *serveResult) selfCheck() {
	var cold, hot, failed, flagged int
	for _, s := range r.samples {
		if s.err != "" {
			failed++
			continue
		}
		if s.req.cold {
			cold++
		} else {
			hot++
		}
		if s.resp.Cached == s.req.cold {
			flagged++
		}
	}
	delta := func(name string) float64 { return r.after[name] - r.before[name] }
	l2 := delta("treegiond_store_hits_total")
	misses := delta("treegiond_cache_misses_total") - l2
	hits := delta("treegiond_cache_hits_total") + l2
	compiles := delta("treegiond_pipeline_compiles_total")
	slack := float64(failed)
	r.selfOK = flagged == 0 && math.Abs(misses-float64(cold)) <= slack && math.Abs(hits-float64(hot)) <= slack &&
		math.Abs(compiles-float64(cold)) <= slack
	r.selfNote = fmt.Sprintf("designed %d cold + %d repeats (%.3f cold); daemon counted %.0f misses + %.0f hits (%.0f from the store), %.0f compiles; %d responses with the wrong cached flag; %d failed",
		cold, hot, float64(cold)/float64(max(cold+hot, 1)), misses, hits, l2, compiles, flagged, failed)
}

// checkResponses re-derives every distinct unit in-process, exactly as the
// daemon would compile it, and requires every response to carry the same
// estimated cycles; verified responses must carry no Error diagnostic. It
// runs after the measured window, on workers goroutines. Each distinct unit
// is one "reference compile" operation, each request one "daemon request",
// and the self-check one more operation.
func (r *serveResult) checkResponses(e *env, workers int, ops *ledger) {
	index := map[unit]int{}
	var units []unit
	for _, s := range r.samples {
		if _, ok := index[s.req.unit]; !ok && s.err == "" {
			index[s.req.unit] = len(units)
			units = append(units, s.req.unit)
		}
	}
	errs := make([]error, len(units))
	times := make([]float64, len(units))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				times[i], errs[i] = reference(e, units[i])
			}
		}()
	}
	for i := range units {
		next <- i
	}
	close(next)
	wg.Wait()
	refs := ops.in("reference compile")
	for i, u := range units {
		if errs[i] != nil {
			refs.record(fmt.Sprintf("reference for %s %s seed %d: %v", e.pool[u.fn].name, u.region, u.seed, errs[i]))
		} else {
			refs.record()
		}
	}
	requests := ops.in("daemon request")
	for i, s := range r.samples {
		var problems []string
		if s.err != "" {
			problems = append(problems, fmt.Sprintf("request %d (%s %s seed %d verify %t): %s",
				i, e.pool[s.req.fn].name, s.req.region, s.req.seed, s.req.verify, s.err))
		} else {
			if j := index[s.req.unit]; errs[j] != nil {
				problems = append(problems, fmt.Sprintf("%s: unchecked, its reference compile failed", e.pool[s.req.fn].name))
			} else if s.resp.Time != times[j] {
				problems = append(problems, fmt.Sprintf("%s %s seed %d: daemon %v cycles, in-process %v",
					e.pool[s.req.fn].name, s.req.region, s.req.seed, s.resp.Time, times[j]))
			}
			if s.req.verify {
				if !s.resp.Verified {
					problems = append(problems, fmt.Sprintf("%s: verify requested, response not verified", e.pool[s.req.fn].name))
				}
				for _, d := range s.resp.Diagnostics {
					if strings.HasPrefix(d, "error ") {
						problems = append(problems, fmt.Sprintf("%s: %s", e.pool[s.req.fn].name, d))
					}
				}
			}
		}
		requests.record(problems...)
	}
	if r.selfOK {
		ops.in("serve self-check").record()
	} else {
		ops.in("serve self-check").record("self-check: " + r.selfNote)
	}
}

// reference compiles one unit in-process along the daemon's path: parse
// the same IR text, profile with the same seed and trips, CompileOne under
// the configuration the daemon builds from the request.
func reference(e *env, u unit) (float64, error) {
	c, err := regionConfig(u.region)
	if err != nil {
		return 0, err
	}
	fn, err := treegion.ParseFunction(e.pool[u.fn].ir)
	if err != nil {
		return 0, err
	}
	prof, err := treegion.ProfileFunction(fn, u.seed, e.w.trips)
	if err != nil {
		return 0, err
	}
	fr, _, err := treegion.CompileOne(bg, fn, prof, c, treegion.WithWorkers(1))
	if err != nil {
		return 0, err
	}
	return fr.Time, nil
}
