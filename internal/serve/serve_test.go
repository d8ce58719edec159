package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// doJSON posts body to path on ts and decodes the JSON response.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(payload)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return resp.StatusCode, out
}

// TestServerSmokeGolden drives the whole HTTP surface once — create via
// generator, solve without and with the engine field, churn, cached
// re-solve — and pins the
// deterministic part of each response against testdata/golden_smoke.json.
// Regenerate with GOLDEN_UPDATE=1 go test ./internal/serve/ -run Golden.
// It also checks that no goroutines leak once the server is closed.
func TestServerSmokeGolden(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := New(Options{Workers: 4})
	ts := httptest.NewServer(srv.Handler())

	var golden []map[string]any
	record := func(label string, status int, body map[string]any) {
		delete(body, "durationMs")
		if st, ok := body["stats"].(map[string]any); ok {
			// Instance stats counters depend on request interleaving only
			// in the cacheHits/solves split under concurrency; this test is
			// sequential, so keep them.
			_ = st
		}
		golden = append(golden, map[string]any{"label": label, "status": status, "body": body})
	}

	status, body := doJSON(t, ts, "POST", "/v1/graphs", CreateGraphRequest{
		ID: "smoke", N: 24, Seed: 5,
		Generator: &harnessGeneratorSpec{Name: "connected-gnp"},
	})
	record("create", status, body)
	if status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %v", status, body)
	}

	// "" and "batch" name the one engine, so they share one cache entry:
	// the first solve is a fresh execution, the "batch" spelling a hit.
	for _, tc := range []struct {
		label, engine string
		cached        bool
	}{{"solve-default", "", false}, {"solve-batch", "batch", true}} {
		status, body = doJSON(t, ts, "POST", "/v1/graphs/smoke/solve", SolveRequest{
			Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: tc.engine, Oracle: true,
		})
		record(tc.label, status, body)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %v", tc.label, status, body)
		}
		if cached, _ := body["cached"].(bool); cached != tc.cached {
			t.Fatalf("%s: cached = %v, want %v", tc.label, cached, tc.cached)
		}
	}

	// Identical repeat: served from cache, byte-identical payload.
	status, body = doJSON(t, ts, "POST", "/v1/graphs/smoke/solve", SolveRequest{
		Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch", Oracle: true,
	})
	record("solve-cached", status, body)
	if cached, _ := body["cached"].(bool); !cached {
		t.Fatalf("repeat solve not served from cache: %v", body)
	}

	// Churn: insert the graph's first non-edge, then delete it again in the
	// same batch; cached powers update incrementally. The pair is found by
	// rebuilding the seeded instance locally, so the batch is deterministic.
	local, err := (&harnessGeneratorSpec{Name: "connected-gnp"}).Build(24, seededRng(5))
	if err != nil {
		t.Fatal(err)
	}
	cu, cv := -1, -1
	for u := 0; u < local.N() && cu < 0; u++ {
		for v := u + 1; v < local.N(); v++ {
			if !local.HasEdge(u, v) {
				cu, cv = u, v
				break
			}
		}
	}
	status, body = doJSON(t, ts, "POST", "/v1/graphs/smoke/edges", map[string]any{
		"edits": []map[string]any{
			{"u": cu, "v": cv},
			{"u": cu, "v": cv, "del": true},
		},
	})
	record("churn", status, body)
	if status != http.StatusOK {
		t.Fatalf("churn: HTTP %d: %v", status, body)
	}

	// Post-churn solve: fresh execution (version bumped), same graph
	// content, so the same deterministic result as before.
	status, body = doJSON(t, ts, "POST", "/v1/graphs/smoke/solve", SolveRequest{
		Algorithm: "mvc-congest", Power: 2, Epsilon: 0.5, Engine: "batch", Oracle: true,
	})
	record("solve-postchurn", status, body)
	if cached, _ := body["cached"].(bool); cached {
		t.Fatal("churn did not invalidate the result cache")
	}

	status, body = doJSON(t, ts, "GET", "/v1/graphs/smoke", nil)
	record("info", status, body)

	goldenPath := filepath.Join("testdata", "golden_smoke.json")
	got, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch (regenerate with GOLDEN_UPDATE=1 if intended)\n got: %s\nwant: %s", got, want)
	}

	// Leak check: closing the test server must return the goroutine count
	// to its baseline (worker slots are per-request, solves all finished).
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestServerValidation: malformed and invalid requests come back as clean
// 4xx envelopes, never 500s or panics.
func TestServerValidation(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		label  string
		method string
		path   string
		body   any
		status int
	}{
		{"missing id", "POST", "/v1/graphs", CreateGraphRequest{N: 8, Generator: &harnessGeneratorSpec{Name: "path"}}, http.StatusBadRequest},
		{"no source", "POST", "/v1/graphs", CreateGraphRequest{ID: "x"}, http.StatusBadRequest},
		{"bad generator", "POST", "/v1/graphs", CreateGraphRequest{ID: "x", N: 8, Generator: &harnessGeneratorSpec{Name: "nope"}}, http.StatusBadRequest},
		{"bad edge list", "POST", "/v1/graphs", CreateGraphRequest{ID: "x", EdgeList: "n 4\ne 0 9\n"}, http.StatusBadRequest},
		{"unknown graph solve", "POST", "/v1/graphs/ghost/solve", SolveRequest{Algorithm: "gavril"}, http.StatusNotFound},
		{"unknown graph churn", "POST", "/v1/graphs/ghost/edges", map[string]any{"edits": []any{}}, http.StatusNotFound},
		{"unknown graph delete", "DELETE", "/v1/graphs/ghost", nil, http.StatusNotFound},
	} {
		status, body := doJSON(t, ts, tc.method, tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s: HTTP %d (want %d): %v", tc.label, status, tc.status, body)
		}
		if msg, _ := body["error"].(string); status/100 == 4 && msg == "" {
			t.Errorf("%s: 4xx without error message: %v", tc.label, body)
		}
	}

	// Edge-list line numbers survive to the client.
	status, body := doJSON(t, ts, "POST", "/v1/graphs", CreateGraphRequest{
		ID: "x", EdgeList: "n 4\ne 0 1\ne 0 9\n",
	})
	if status != http.StatusBadRequest || !strings.Contains(body["error"].(string), "line 3") {
		t.Errorf("edge-list error lost its line number: %d %v", status, body)
	}

	// Solve of an unknown algorithm and an unsupported power: 400s.
	if _, err := srv.AddGraph("g", mustGNP(t, 16, 11)); err != nil {
		t.Fatal(err)
	}
	status, _ = doJSON(t, ts, "POST", "/v1/graphs/g/solve", SolveRequest{Algorithm: "no-such"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown algorithm: HTTP %d", status)
	}
	status, _ = doJSON(t, ts, "POST", "/v1/graphs/g/solve", SolveRequest{Algorithm: "gavril", Power: 9})
	if status != http.StatusBadRequest {
		t.Errorf("power out of range: HTTP %d", status)
	}

	// The removed goroutine engine and unknown engine names: 400s that
	// say the goroutine engine is gone.
	for _, engine := range []string{"goroutine", "threads"} {
		status, body = doJSON(t, ts, "POST", "/v1/graphs/g/solve", SolveRequest{Algorithm: "mvc-congest", Engine: engine})
		if msg, _ := body["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "goroutine engine was removed") {
			t.Errorf("engine %q: HTTP %d %v", engine, status, body)
		}
	}
	// Likewise the removed legacy gather and unknown gather names, at a
	// power where the gather runs; "sparsified", the only gather, is served.
	for _, gather := range []string{"legacy", "bogus"} {
		status, body = doJSON(t, ts, "POST", "/v1/graphs/g/solve", SolveRequest{Algorithm: "mvc-congest", Power: 3, Epsilon: 0.5, Gather: gather})
		if msg, _ := body["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "legacy gather was removed") {
			t.Errorf("gather %q: HTTP %d %v", gather, status, body)
		}
	}
	status, body = doJSON(t, ts, "POST", "/v1/graphs/g/solve", SolveRequest{Algorithm: "mvc-congest", Power: 3, Epsilon: 0.5, Gather: "sparsified"})
	if status != http.StatusOK {
		t.Errorf("gather \"sparsified\": HTTP %d %v", status, body)
	}

	// Trailing garbage after a JSON body is rejected like spec files.
	resp, err := ts.Client().Post(ts.URL+"/v1/graphs/g/solve", "application/json",
		strings.NewReader(`{"algorithm":"gavril"} {"algorithm":"gavril"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing garbage accepted: HTTP %d", resp.StatusCode)
	}
}

// TestServerNDJSONChurn streams edits line by line and checks the atomic
// batch semantics, including mid-stream validation failures leaving the
// graph untouched.
func TestServerNDJSONChurn(t *testing.T) {
	srv := New(Options{})
	inst, err := srv.AddGraph("g", mustGNP(t, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := inst.power(2); err != nil {
		t.Fatal(err)
	}
	before := inst.Info()

	// Find two non-edges to insert.
	var lines []string
	count := 0
	for u := 0; u < 20 && count < 2; u++ {
		for v := u + 1; v < 20 && count < 2; v++ {
			if !inst.ov.HasEdge(u, v) {
				lines = append(lines, fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
				count++
			}
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/graphs/g/edges", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	var res ChurnResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Applied != 2 || res.Version != before.Version+1 {
		t.Fatalf("ndjson churn: HTTP %d %+v", resp.StatusCode, res)
	}
	if len(res.Updates) != 1 || res.Updates[0].R != 2 {
		t.Fatalf("cached power not updated: %+v", res.Updates)
	}

	// A batch with an invalid edit (self-loop) is rejected wholesale.
	resp, err = ts.Client().Post(ts.URL+"/v1/graphs/g/edges", "application/x-ndjson",
		strings.NewReader(`{"u":3,"v":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-loop accepted: HTTP %d", resp.StatusCode)
	}
	if got := inst.Info(); got.Version != before.Version+1 {
		t.Fatalf("failed batch changed version: %d", got.Version)
	}
}

// TestSolveCanceledRequest: a canceled request context aborts an in-flight
// distributed solve and surfaces as 499, leaving the cache clean so the
// next identical request runs fresh.
func TestSolveCanceledRequest(t *testing.T) {
	srv := New(Options{})
	if _, err := srv.AddGraph("g", mustGNP(t, 24, 7)); err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	payload, _ := json.Marshal(SolveRequest{Algorithm: "mvc-congest", Epsilon: 0.5, Engine: "batch"})
	req := httptest.NewRequest("POST", "/v1/graphs/g/solve", bytes.NewReader(payload)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled solve: HTTP %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}

	// Same request with a live context succeeds (the canceled attempt must
	// not have poisoned the result cache).
	req = httptest.NewRequest("POST", "/v1/graphs/g/solve", bytes.NewReader(payload))
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-cancel solve: HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("canceled execution left a cache entry behind")
	}
}
