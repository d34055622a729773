package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fuzzTrips is the most profiling trips a fuzzed body may ask for within
// the daemon's bound: a fuzzed loop can spend the interpreter's 2M-step
// bound on every trip, so bodies keep to one or two trips.
const fuzzTrips = 2

// clampTrips sets a JSON-object body's "trips" to fuzzTrips. A value above
// the daemon's bound (rejected before any profiling) or of the wrong type
// (bad_json) stays, as does a body that is not a JSON object.
func clampTrips(body []byte) []byte {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil || m == nil {
		return body
	}
	if v, num := m["trips"].(float64); (num && v > maxTrips) || (!num && m["trips"] != nil) {
		return body
	}
	m["trips"] = fuzzTrips
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// FuzzCompileRequest sends bodies to /v1/compile (batch false) and
// /v1/compile-batch (batch true) through the handler. Whatever the body,
// the answer is 200, 400, 413 or 422, and every non-200 carries a
// structured JSON error code. The corpus starts from the error-table
// bodies and the example programs.
func FuzzCompileRequest(f *testing.F) {
	for _, tc := range compileErrorCases {
		f.Add(false, []byte(tc.body))
	}
	paths, _ := filepath.Glob("../../examples/tir/*.tir")
	for _, p := range append(paths, "../../testdata/fig1.tir") {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		single, _ := json.Marshal(map[string]any{"ir": string(src), "region": "tree-td", "verify": true})
		inline, _ := json.Marshal(map[string]any{"ir": string(src), "inline": true, "schedules": true})
		batch, _ := json.Marshal(map[string]any{"functions": []map[string]string{{"ir": string(src)}}, "machine": "8U"})
		f.Add(false, single)
		f.Add(false, inline)
		f.Add(true, batch)
	}

	s, err := newServer(serverConfig{cacheBytes: 1 << 20, jobWorkers: 1, jobQueue: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	})
	h := s.routes()

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/compile"
		if batch {
			path = "/v1/compile-batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(clampTrips(body))))
		switch rec.Code {
		case http.StatusOK:
			return
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code == "" {
			t.Fatalf("%s: status %d without a JSON error code (%v): %s", path, rec.Code, err, rec.Body.Bytes())
		}
	})
}
