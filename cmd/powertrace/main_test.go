package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"powergraph/internal/harness"
)

// writeTraces runs a tiny two-job sweep (one distributed, one centralized)
// with tracing enabled and returns the trace directory plus the report.
func writeTraces(t *testing.T) (string, *harness.Report) {
	t.Helper()
	dir := t.TempDir()
	jobs := []harness.Job{
		{Index: 0, Generator: harness.GeneratorSpec{Name: "connected-gnp"}, N: 20,
			Power: 2, Algorithm: "mvc-congest", Epsilon: 0.5, Seed: 7, Engine: "batch"},
		{Index: 1, Generator: harness.GeneratorSpec{Name: "path"}, N: 10,
			Power: 2, Algorithm: "gavril", Seed: 8},
	}
	rep, err := harness.RunJobs(context.Background(), jobs, harness.RunOptions{TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("job %d: %s", r.Index, r.Error)
		}
	}
	return dir, rep
}

func TestCheckAcceptsRealTraces(t *testing.T) {
	dir, rep := writeTraces(t)
	var out bytes.Buffer
	if err := run(&out, []string{"-check", dir}); err != nil {
		t.Fatalf("valid traces rejected: %v\n%s", err, out.String())
	}
	text := out.String()
	if strings.Contains(text, "VIOLATION") {
		t.Fatalf("violations on a clean run:\n%s", text)
	}
	// The distributed job's summary accounts for 100%% of its rounds.
	wantRounds := strconv.Itoa(rep.Results[0].Rounds) + " rounds"
	if !strings.Contains(text, wantRounds) {
		t.Fatalf("check summary does not report %s:\n%s", wantRounds, text)
	}
	if !strings.Contains(text, "centralized, no engine events") {
		t.Fatalf("centralized job not recognized:\n%s", text)
	}
}

func TestTimelineAccountsForEveryRound(t *testing.T) {
	dir, rep := writeTraces(t)
	var out bytes.Buffer
	if err := run(&out, []string{"-format", "csv", dir}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs[0], timelineCSVHeader) {
		t.Fatalf("CSV header %v, want %v", recs[0], timelineCSVHeader)
	}
	// One row per (job, round): the distributed job contributes exactly its
	// counted rounds, the centralized one nothing.
	if got, want := len(recs)-1, rep.Results[0].Rounds; got != want {
		t.Fatalf("%d timeline rows for %d counted rounds", got, want)
	}
	var phased bool
	for i, rec := range recs[1:] {
		if rec[4] != strconv.Itoa(i) {
			t.Fatalf("row %d carries round %s", i, rec[4])
		}
		if rec[9] != "" {
			phased = true
		}
	}
	if !phased {
		t.Fatal("no timeline row is covered by any phase span")
	}

	out.Reset()
	if err := run(&out, []string{"-job", "0", dir}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "mvc-congest") || strings.Contains(text, "gavril") {
		t.Fatalf("-job 0 did not restrict output:\n%s", text)
	}
	if !strings.Contains(text, "leader-solve") || !strings.Contains(text, "kernel-solve: path=") {
		t.Fatalf("timeline missing leader/kernel detail:\n%s", text)
	}
}

func TestCheckRejectsBrokenTraces(t *testing.T) {
	cases := map[string]string{
		// A span that never closes.
		"unclosed": `{"type":"job","index":0,"algorithm":"x","n":4,"power":2}
{"type":"run-start","n":4,"model":"CONGEST","engine":"batch","bandwidth":8,"maxRounds":10,"seed":1}
{"type":"span-begin","name":"phase1","index":0,"round":0}
{"type":"run-end","rounds":0,"messages":0,"totalBits":0,"maxRoundBits":0,"maxRoundMessages":0}
{"type":"job-end","metrics":null}`,
		// Round events out of order.
		"rounds": `{"type":"job","index":0,"algorithm":"x","n":4,"power":2}
{"type":"run-start","n":4,"model":"CONGEST","engine":"batch","bandwidth":8,"maxRounds":10,"seed":1}
{"type":"round","round":1,"active":4,"msgs":0,"bits":0,"maxLink":0}
{"type":"round","round":0,"active":4,"msgs":0,"bits":0,"maxLink":0}
{"type":"run-end","rounds":2,"messages":0,"totalBits":0,"maxRoundBits":0,"maxRoundMessages":0}
{"type":"job-end","metrics":null}`,
		// Round sums disagreeing with the run-end totals.
		"totals": `{"type":"job","index":0,"algorithm":"x","n":4,"power":2}
{"type":"run-start","n":4,"model":"CONGEST","engine":"batch","bandwidth":8,"maxRounds":10,"seed":1}
{"type":"round","round":0,"active":4,"msgs":2,"bits":16,"maxLink":8}
{"type":"run-end","rounds":1,"messages":2,"totalBits":99,"maxRoundBits":16,"maxRoundMessages":2}
{"type":"job-end","metrics":null}`,
		// No job-end seal (crashed mid-write).
		"unsealed": `{"type":"job","index":0,"algorithm":"x","n":4,"power":2}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "job-000000.jsonl")
			if err := os.WriteFile(path, []byte(content+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(&out, []string{"-check", dir}); err == nil {
				t.Fatalf("broken trace accepted:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "VIOLATION") {
				t.Fatalf("no violation reported:\n%s", out.String())
			}
		})
	}
}
