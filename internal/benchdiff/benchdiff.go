// Package benchdiff owns the repo's one benchmark document format,
// nassim-bench/v2, and the regression gate over it. Every exporter
// (the root benchmarks, cmd/evalbench -stages, cmd/loadgen) writes its
// BENCH_<name>.json through Writer; Compare gates a fresh document
// against the committed baseline.
//
// A document is a host block (which machine produced it) plus flat
// records. Each record carries its own gate: a direction (lower-better
// timings, higher-better speedups and ratios, informational counts that
// are reported when they move but never fail), a tolerance and an
// absolute noise floor. The exporter that measures a figure knows how
// noisy it is, so it sets the gate; the gate itself knows no metric names.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Schema is the version tag of every BENCH_*.json document.
const Schema = "nassim-bench/v2"

// Direction classifies how a record's value relates to quality; it is
// the record's "better" field.
type Direction string

const (
	// LowerBetter marks timings and failure counts: growth is a regression.
	LowerBetter Direction = "lower"
	// HigherBetter marks speedups, ratios, utilization: shrink regresses.
	HigherBetter Direction = "higher"
	// Info records (sample sizes, fault counts) are reported when they
	// change but never regress.
	Info Direction = "info"
)

// Record is one benchmark figure with the gate it is judged by.
type Record struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better Direction `json:"better"`
	Value  float64   `json:"value"`
	// Tol is the allowed fractional worsening (0.5 = a lower-better
	// figure may grow 50%); 0 takes the direction's default.
	Tol float64 `json:"tol"`
	// Floor, when > 0, is an absolute noise floor in the record's unit: a
	// change whose absolute delta stays under it never regresses, whatever
	// the ratio says. Millisecond-scale single-shot timings need this — a
	// 2ms stage can "triple" on scheduler jitter alone.
	Floor float64 `json:"floor"`
}

// Default tolerances: a lower-better figure may grow 50%, a higher-better
// one drop 25%. Deliberately loose: timing on shared machines is noisy,
// and a gate that cries wolf gets deleted.
const (
	DefaultTimingTolerance  = 0.50
	DefaultDerivedTolerance = 0.25
)

// SingleShotTolerance is the tolerance for timings measured from one
// execution: they may double before the gate trips.
const SingleShotTolerance = 1.0

// SpeedupTolerance is the tolerance for derived speedup ratios and
// throughputs. Parallel speedups measured on shared machines swing hard
// with scheduler load — a burst that lands on one variant but not the
// other moves the ratio alone — so only a drop past 50%, a real collapse,
// trips the gate. (1.0 would make a higher-better ratio ungateable: a
// positive value cannot drop more than 100%.)
const SpeedupTolerance = 0.5

// ShortBenchNS is the total measured time (b.N x ns_per_op) below which a
// Go benchmark's ns_per_op is treated as burst-sensitive rather than
// averaged: whether five 120ms iterations or two hundred 40µs ones, a
// measurement that completes in under a second can land entirely inside
// one host-load burst, so such entries gate at SingleShotTolerance.
const ShortBenchNS = 1e9

// Absolute noise floors for single-shot timings, one per unit: below 25ms
// of wall time a one-execution measurement is at scheduler-jitter
// resolution and ratios carry no signal. A genuine algorithmic regression
// clears the floor easily.
const (
	SingleShotFloorNS      = 25e6
	SingleShotFloorMs      = 25.0
	SingleShotFloorSeconds = 0.025
)

// Lower returns a lower-better record at the default timing tolerance.
func Lower(name, unit string, v float64) Record {
	return Record{Name: name, Unit: unit, Better: LowerBetter, Value: v, Tol: DefaultTimingTolerance}
}

// Higher returns a higher-better record at the default derived tolerance.
func Higher(name, unit string, v float64) Record {
	return Record{Name: name, Unit: unit, Better: HigherBetter, Value: v, Tol: DefaultDerivedTolerance}
}

// Informational returns a record that is reported but never regresses.
func Informational(name, unit string, v float64) Record {
	return Record{Name: name, Unit: unit, Better: Info, Value: v}
}

// Gate returns r with the given tolerance and noise floor.
func (r Record) Gate(tol, floor float64) Record {
	r.Tol, r.Floor = tol, floor
	return r
}

// SingleShot returns a lower-better timing measured from one execution
// (or a handful): it gates at SingleShotTolerance above the unit's floor.
func SingleShot(name, unit string, v, floor float64) Record {
	return Lower(name, unit, v).Gate(SingleShotTolerance, floor)
}

// NsPerOp returns the bench.<name>.ns_per_op record of a Go benchmark
// that ran n iterations in elapsed. A benchmark that measured less than
// ShortBenchNS in total gates at the single-shot tolerance.
func NsPerOp(name string, elapsed time.Duration, n int) Record {
	ns := float64(elapsed.Nanoseconds()) / float64(n)
	r := Lower("bench."+name+".ns_per_op", "ns", ns)
	if ns*float64(n) < ShortBenchNS {
		r.Tol = SingleShotTolerance
	}
	return r
}

// StageRecords returns a stage's stage.<name>.avg_ns and .calls records.
// Stage timings come from one pipeline run, not b.N iterations, so they
// use the single-shot gate.
func StageRecords(name string, calls int, total time.Duration) []Record {
	var avg float64
	if calls > 0 {
		avg = float64(total.Nanoseconds() / int64(calls))
	}
	return []Record{
		SingleShot("stage."+name+".avg_ns", "ns", avg, SingleShotFloorNS),
		Informational("stage."+name+".calls", "count", float64(calls)),
	}
}

// Host identifies the machine and toolchain a document was produced on.
// Worker-count labels and every timing depend on it, so a diff across
// hosts is reported as such.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentHost describes the running process's host.
func CurrentHost() Host {
	return Host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

func (h Host) String() string {
	return fmt.Sprintf("%s/%s %s gomaxprocs=%d num_cpu=%d", h.GOOS, h.GOARCH, h.GoVersion, h.GOMAXPROCS, h.NumCPU)
}

// Doc is one BENCH_*.json document.
type Doc struct {
	Schema  string   `json:"schema"`
	Host    Host     `json:"host"`
	Records []Record `json:"records"`
}

// Flatten decodes one BENCH_*.json document. It rejects other schemas,
// a missing host block, and unnamed, duplicate or undirected records,
// and returns the records sorted by name.
func Flatten(data []byte) (*Doc, error) {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("benchdiff: not a %s document: %w", Schema, err)
	}
	switch {
	case d.Schema == "":
		return nil, fmt.Errorf("benchdiff: document has no schema field")
	case d.Schema != Schema:
		return nil, fmt.Errorf("benchdiff: unknown schema %q (want %s)", d.Schema, Schema)
	case d.Host == Host{}:
		return nil, fmt.Errorf("benchdiff: document has no host block")
	}
	sort.Slice(d.Records, func(i, j int) bool { return d.Records[i].Name < d.Records[j].Name })
	for i, r := range d.Records {
		switch {
		case r.Name == "":
			return nil, fmt.Errorf("benchdiff: record %d has no name", i)
		case i > 0 && d.Records[i-1].Name == r.Name:
			return nil, fmt.Errorf("benchdiff: duplicate record %q", r.Name)
		case r.Better != LowerBetter && r.Better != HigherBetter && r.Better != Info:
			return nil, fmt.Errorf("benchdiff: record %q has unknown direction %q", r.Name, r.Better)
		}
	}
	return &d, nil
}

// EnvDir names the environment variable that switches benchmark export
// on: with NASSIM_BENCH_DIR=d every exporter writes d/BENCH_<name>.json.
const EnvDir = "NASSIM_BENCH_DIR"

// DefaultPath is where the document called name goes: under
// $NASSIM_BENCH_DIR, or the working directory when it is unset.
func DefaultPath(name string) string {
	return filepath.Join(os.Getenv(EnvDir), "BENCH_"+name+".json")
}

// Writer accumulates one document's records and rewrites the whole file
// after every Put, so a partial run (one benchmark of several, a CI
// smoke iteration) still leaves a valid document. A nil *Writer drops
// records. It is safe for concurrent use.
type Writer struct {
	path string
	mu   sync.Mutex
	recs map[string]Record
}

// NewWriter returns a writer for the document called name when
// NASSIM_BENCH_DIR is set, and nil (export off) otherwise. Benchmarks use
// it so that plain `go test -bench` runs write nothing.
func NewWriter(name string) *Writer {
	if os.Getenv(EnvDir) == "" {
		return nil
	}
	return NewFileWriter(DefaultPath(name))
}

// NewFileWriter returns a writer for an explicit path.
func NewFileWriter(path string) *Writer {
	return &Writer{path: path, recs: map[string]Record{}}
}

// Put adds or replaces records by name and rewrites the document.
func (w *Writer) Put(recs ...Record) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range recs {
		w.recs[r.Name] = r
	}
	d := Doc{Schema: Schema, Host: CurrentHost(), Records: make([]Record, 0, len(w.recs))}
	for _, r := range w.recs {
		d.Records = append(d.Records, r)
	}
	sort.Slice(d.Records, func(i, j int) bool { return d.Records[i].Name < d.Records[j].Name })
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(w.path, append(data, '\n'), 0o644)
}

// Value returns the value of a record already put.
func (w *Writer) Value(name string) (float64, bool) {
	if w == nil {
		return 0, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.recs[name]
	return r.Value, ok
}

func tolerance(r Record) float64 {
	if r.Tol > 0 {
		return r.Tol
	}
	if r.Better == HigherBetter {
		return DefaultDerivedTolerance
	}
	return DefaultTimingTolerance
}

// Delta is one record's baseline-vs-current comparison.
type Delta struct {
	Name string    `json:"name"`
	Dir  Direction `json:"direction"`
	Base float64   `json:"base"`
	Cur  float64   `json:"current"`
	// Change is the signed fractional change, (cur-base)/base; +Inf when
	// the baseline is zero and the current value is not.
	Change float64 `json:"change"`
	// Threshold is the tolerance this delta was gated against.
	Threshold float64 `json:"threshold"`
	Regressed bool    `json:"regressed"`
}

// Result is one document pair's comparison.
type Result struct {
	BaseHost Host    `json:"baseline_host"`
	CurHost  Host    `json:"current_host"`
	Deltas   []Delta `json:"deltas"`
	// MissingCurrent lists baseline records absent from the current run;
	// AddedCurrent the reverse. Missing records count as regressions — a
	// benchmark silently dropped is exactly what a gate must catch.
	MissingCurrent []string `json:"missing_current,omitempty"`
	AddedCurrent   []string `json:"added_current,omitempty"`
}

// Regressions returns the deltas that failed the gate.
func (r *Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Failed reports whether the comparison must fail the build.
func (r *Result) Failed() bool {
	return len(r.MissingCurrent) > 0 || len(r.Regressions()) > 0
}

// Compare decodes both documents and gates every baseline record against
// its current value, using the baseline record's direction, tolerance
// and floor.
func Compare(baseline, current []byte) (*Result, error) {
	bd, err := Flatten(baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	cd, err := Flatten(current)
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	cur := make(map[string]Record, len(cd.Records))
	for _, r := range cd.Records {
		cur[r.Name] = r
	}
	res := &Result{BaseHost: bd.Host, CurHost: cd.Host}
	seen := map[string]bool{}
	for _, br := range bd.Records {
		seen[br.Name] = true
		cr, ok := cur[br.Name]
		if !ok {
			res.MissingCurrent = append(res.MissingCurrent, br.Name)
			continue
		}
		d := Delta{Name: br.Name, Dir: br.Better, Base: br.Value, Cur: cr.Value,
			Threshold: tolerance(br)}
		switch {
		case br.Value == 0 && cr.Value == 0:
			d.Change = 0
		case br.Value == 0:
			d.Change = math.Inf(1)
		default:
			d.Change = (cr.Value - br.Value) / math.Abs(br.Value)
		}
		switch br.Better {
		case LowerBetter:
			d.Regressed = d.Change > d.Threshold
		case HigherBetter:
			d.Regressed = d.Change < -d.Threshold
		}
		if d.Regressed && br.Floor > 0 && math.Abs(cr.Value-br.Value) < br.Floor {
			// Under the absolute noise floor the ratio is jitter, not signal.
			d.Regressed = false
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, cr := range cd.Records {
		if !seen[cr.Name] {
			res.AddedCurrent = append(res.AddedCurrent, cr.Name)
		}
	}
	return res, nil
}

// Table renders the result as an aligned human-readable table; changed or
// regressed records first, unchanged informational rows summarized.
func (r *Result) Table() string {
	var b strings.Builder
	if r.BaseHost == r.CurHost {
		fmt.Fprintf(&b, "host %s\n", r.BaseHost)
	} else {
		fmt.Fprintf(&b, "HOSTS DIFFER: baseline %s, current %s\n", r.BaseHost, r.CurHost)
	}
	fmt.Fprintf(&b, "  %-52s %14s %14s %9s  %s\n", "metric", "baseline", "current", "change", "verdict")
	quiet := 0
	for _, d := range r.Deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = fmt.Sprintf("REGRESSED (>%g%% %s)", 100*d.Threshold, worseWord(d.Dir))
		} else if d.Dir == Info {
			if d.Change == 0 {
				quiet++
				continue
			}
			verdict = "info"
		} else if d.Change == 0 {
			quiet++
			continue
		}
		fmt.Fprintf(&b, "  %-52s %14s %14s %+8.1f%%  %s\n",
			d.Name, fmtVal(d.Base), fmtVal(d.Cur), 100*d.Change, verdict)
	}
	for _, name := range r.MissingCurrent {
		fmt.Fprintf(&b, "  %-52s %14s %14s %9s  MISSING from current run\n", name, "-", "-", "")
	}
	for _, name := range r.AddedCurrent {
		fmt.Fprintf(&b, "  %-52s %14s %14s %9s  new metric (no baseline)\n", name, "-", "-", "")
	}
	if quiet > 0 {
		fmt.Fprintf(&b, "  (%d unchanged metric(s) hidden)\n", quiet)
	}
	return b.String()
}

func worseWord(d Direction) string {
	if d == HigherBetter {
		return "drop"
	}
	return "growth"
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
