package harness

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Sink receives results in job-index order.  Implementations need not be
// concurrency-safe: the runner writes from a single collector goroutine.
type Sink interface {
	Write(*JobResult) error
	// Close flushes buffered output.  The runner does NOT close sinks —
	// the caller that opened the underlying files does, so sinks compose
	// with MultiWriter-style setups and partial flushes under cancellation.
	Close() error
}

// JSONLSink streams one JSON object per result per line.  Output is a pure
// function of the results: identical runs produce byte-identical files.
type JSONLSink struct {
	enc *json.Encoder
}

// NewJSONLSink returns a sink writing JSON Lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Write encodes one result as a single line.
func (s *JSONLSink) Write(r *JobResult) error { return s.enc.Encode(r) }

// Close is a no-op: the encoder does not buffer across lines.
func (s *JSONLSink) Close() error { return nil }

// csvHeader is the fixed column order of CSVSink.
var csvHeader = []string{
	"index", "generator", "n", "power", "algorithm", "model", "problem",
	"epsilon", "gather", "trial", "seed", "instanceSeed", "cost",
	"solutionSize", "verified", "optimum", "ratio", "rounds", "messages",
	"totalBits", "maxRoundBits", "maxRoundMessages", "bandwidth",
	"phaseISize", "fallbackJoins", "leaderPath", "leaderKernelN", "spans",
	"gatherMsgs", "error",
}

// CSVSink streams results as CSV with a fixed header row.
type CSVSink struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVSink returns a sink writing CSV to w; the header is emitted with
// the first record so an empty run produces an empty file.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// Write appends one CSV record.
func (s *CSVSink) Write(r *JobResult) error {
	if !s.wroteHeader {
		if err := s.w.Write(csvHeader); err != nil {
			return err
		}
		s.wroteHeader = true
	}
	rec := []string{
		strconv.Itoa(r.Index),
		r.Generator.Key(),
		strconv.Itoa(r.N),
		strconv.Itoa(r.Power),
		r.Algorithm,
		r.Model,
		r.Problem,
		formatFloat(r.Epsilon),
		r.Gather,
		strconv.Itoa(r.Trial),
		strconv.FormatInt(r.Seed, 10),
		strconv.FormatInt(r.InstanceSeed, 10),
		strconv.FormatInt(r.Cost, 10),
		strconv.Itoa(r.SolutionSize),
		strconv.FormatBool(r.Verified),
		strconv.FormatInt(r.Optimum, 10),
		formatFloat(r.Ratio),
		strconv.Itoa(r.Rounds),
		strconv.FormatInt(r.Messages, 10),
		strconv.FormatInt(r.TotalBits, 10),
		strconv.FormatInt(r.MaxRoundBits, 10),
		strconv.FormatInt(r.MaxRoundMessages, 10),
		strconv.Itoa(r.Bandwidth),
		strconv.Itoa(r.PhaseISize),
		strconv.Itoa(r.FallbackJoins),
		r.LeaderPath,
		strconv.Itoa(r.LeaderKernelN),
		r.Spans,
		strconv.FormatInt(r.GatherMsgs, 10),
		r.Error,
	}
	if err := s.w.Write(rec); err != nil {
		return err
	}
	// Flush per record so cancellation mid-run leaves complete rows behind.
	s.w.Flush()
	return s.w.Error()
}

// Close flushes any buffered records.
func (s *CSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// MultiSink fans every result out to the given sinks in order.
type MultiSink []Sink

// Write forwards to each sink, stopping at the first error.
func (m MultiSink) Write(r *JobResult) error {
	for _, s := range m {
		if err := s.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every sink and returns the first error.
func (m MultiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
