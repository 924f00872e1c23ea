package benchdiff

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var testHost = Host{GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2}

// encode renders records as a v2 document from testHost.
func encode(t *testing.T, recs ...Record) []byte {
	t.Helper()
	data, err := json.Marshal(Doc{Schema: Schema, Host: testHost, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// set returns a copy of recs with the named record's value replaced.
func set(t *testing.T, recs []Record, name string, v float64) []Record {
	t.Helper()
	out := append([]Record(nil), recs...)
	for i := range out {
		if out[i].Name == name {
			out[i].Value = v
			return out
		}
	}
	t.Fatalf("no record %q", name)
	return nil
}

func compare(t *testing.T, base, cur []Record) *Result {
	t.Helper()
	res, err := Compare(encode(t, base...), encode(t, cur...))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func regressedNames(res *Result) []string {
	var out []string
	for _, d := range res.Regressions() {
		out = append(out, d.Name)
	}
	return out
}

// frontendBase mirrors BENCH_frontend.json: two ns/op benchmarks that each
// measured 2s in total, and one derived speedup.
var frontendBase = []Record{
	NsPerOp("ParseAll/workers1", 2000*time.Millisecond, 2000),
	NsPerOp("ParseAll/workers8", 2000*time.Millisecond, 4000),
	Higher("derived.parse_speedup_8w", "x", 2.0).Gate(SpeedupTolerance, 0),
}

const parse1 = "bench.ParseAll/workers1.ns_per_op"

func TestCompareCleanPass(t *testing.T) {
	res := compare(t, frontendBase, set(t, frontendBase, parse1, 1100000))
	if res.Failed() {
		t.Fatalf("10%% growth within default tolerance failed: %+v", res.Regressions())
	}
	if res.BaseHost != testHost || res.CurHost != testHost {
		t.Errorf("hosts = %+v / %+v", res.BaseHost, res.CurHost)
	}
}

func TestCompareTimingRegression(t *testing.T) {
	res := compare(t, frontendBase, set(t, frontendBase, parse1, 1600000))
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != parse1 {
		t.Fatalf("regressions = %v", regs)
	}
	if !res.Failed() {
		t.Error("60% timing growth did not fail")
	}
	if !strings.Contains(res.Table(), "REGRESSED") {
		t.Errorf("table lacks verdict:\n%s", res.Table())
	}
}

func TestCompareDerivedRegression(t *testing.T) {
	// A speedup collapse (2.0 -> 0.9, past the 50% speedup gate) must fail
	// even though every timing is fine: higher-better records gate on drops.
	res := compare(t, frontendBase, set(t, frontendBase, "derived.parse_speedup_8w", 0.9))
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != "derived.parse_speedup_8w" {
		t.Fatalf("regressions = %v", regs)
	}
	// An improvement in the same record must not.
	if res := compare(t, frontendBase, set(t, frontendBase, "derived.parse_speedup_8w", 4.0)); res.Failed() {
		t.Fatalf("speedup improvement failed the gate: %+v", res.Regressions())
	}
}

func TestCompareDerivedTimingDirection(t *testing.T) {
	// A derived per-artifact time is a timing: growth regresses, shrink
	// passes — the opposite of the ratios sharing the derived block. The
	// utilization record gates higher-better alongside them.
	base := []Record{
		NsPerOp("DecodeArtifact", 1600*time.Millisecond, 2000),
		Lower("derived.decode_ns_per_artifact", "ns", 100000),
		Higher("derived.parse_worker_utilization_workers8", "ratio", 0.8),
	}
	res := compare(t, base, set(t, base, "derived.decode_ns_per_artifact", 200000))
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != "derived.decode_ns_per_artifact" {
		t.Fatalf("decode time doubled; regressions = %v", regs)
	}
	if res := compare(t, base, set(t, base, "derived.decode_ns_per_artifact", 20000)); res.Failed() {
		t.Fatalf("faster decode failed the gate: %+v", res.Regressions())
	}
	// Utilization collapse past the derived tolerance fails.
	res = compare(t, base, set(t, base, "derived.parse_worker_utilization_workers8", 0.2))
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != "derived.parse_worker_utilization_workers8" {
		t.Fatalf("utilization collapse; regressions = %v", regs)
	}
}

func TestCompareMissingMetricFails(t *testing.T) {
	cur := []Record{frontendBase[0], frontendBase[2], NsPerOp("X", 1, 1)}
	res := compare(t, frontendBase, cur)
	if !res.Failed() {
		t.Fatal("dropped benchmark did not fail the gate")
	}
	if len(res.MissingCurrent) != 1 || len(res.AddedCurrent) != 1 {
		t.Fatalf("missing=%v added=%v", res.MissingCurrent, res.AddedCurrent)
	}
}

// TestSingleShotTolerance: one-run stage timings gate at the wider
// single-shot threshold (may double), but not beyond. Magnitudes sit well
// above the absolute noise floor so only the ratio is under test.
func TestSingleShotTolerance(t *testing.T) {
	base := append([]Record{
		SingleShot("wall_ns", "ns", 400e6, SingleShotFloorNS),
		Informational("jobs", "count", 4),
	}, StageRecords("parse", 4, 400*time.Millisecond)...)
	if res := compare(t, base, set(t, base, "stage.parse.avg_ns", 180e6)); res.Failed() { // +80%
		t.Fatalf("+80%% single-shot stage timing failed the 2x gate: %+v", res.Regressions())
	}
	res := compare(t, base, set(t, base, "stage.parse.avg_ns", 250e6)) // +150%
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != "stage.parse.avg_ns" {
		t.Fatalf("regressions = %v", regs)
	}
}

// TestShortBenchTolerance: a benchmark whose total measured time (n x
// ns_per_op) fits inside one host-load burst gates at the single-shot
// threshold, not the default.
func TestShortBenchTolerance(t *testing.T) {
	base := []Record{NsPerOp("TFIDFRank", 200*43*time.Microsecond, 200)} // 8.6ms total
	if base[0].Tol != SingleShotTolerance {
		t.Fatalf("short benchmark tol = %g", base[0].Tol)
	}
	if long := NsPerOp("TFIDFRank", 2*time.Second, 200); long.Tol != DefaultTimingTolerance {
		t.Fatalf("2s benchmark tol = %g", long.Tol)
	}
	name := "bench.TFIDFRank.ns_per_op"
	if res := compare(t, base, set(t, base, name, 78000)); res.Failed() { // +81%
		t.Fatalf("+81%% short-bench timing failed the 2x gate: %+v", res.Regressions())
	}
	res := compare(t, base, set(t, base, name, 99000)) // +130%
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != name {
		t.Fatalf("regressions = %v", regs)
	}
}

// TestAbsoluteNoiseFloor: a millisecond-scale single-shot stage may triple
// on scheduler jitter (delta under the 25ms floor) without regressing, but
// a growth that clears the floor still fails.
func TestAbsoluteNoiseFloor(t *testing.T) {
	base := append([]Record{SingleShot("wall_ns", "ns", 400e6, SingleShotFloorNS)},
		StageRecords("syntax_cgm", 4, 8*time.Millisecond)...)
	name := "stage.syntax_cgm.avg_ns"
	if res := compare(t, base, set(t, base, name, 6.7e6)); res.Failed() { // +235%, delta 4.7ms
		t.Fatalf("sub-floor jitter on a 2ms stage failed the gate: %+v", res.Regressions())
	}
	res := compare(t, base, set(t, base, name, 50e6)) // delta 48ms
	if regs := regressedNames(res); len(regs) != 1 || regs[0] != name {
		t.Fatalf("regressions = %v", regs)
	}
}

// TestFlattenAllSchemas: every record shape the exporters write decodes,
// comes back sorted by name, and self-compares clean.
func TestFlattenAllSchemas(t *testing.T) {
	recs := []Record{
		Informational(`metric.nassim_pipeline_stage_total{outcome="run"}`, "count", 3),
		SingleShot(`metric.nassim_pipeline_stage_seconds_sum{stage="parse"}`, "s", 0.3, SingleShotFloorSeconds),
		NsPerOp("MapperRecommend/IR", 200*5*time.Microsecond, 200),
		Lower("exec_p50_ms", "ms", 1.2),
		Higher("cache_hit_ratio", "ratio", 0.75),
	}
	recs = append(recs, StageRecords("parse", 3, 300*time.Nanosecond)...)
	data := encode(t, recs...)
	d, err := Flatten(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != Schema || d.Host != testHost || len(d.Records) != len(recs) {
		t.Fatalf("decoded %+v", d)
	}
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i-1].Name >= d.Records[i].Name {
			t.Errorf("records not sorted: %q >= %q", d.Records[i-1].Name, d.Records[i].Name)
		}
	}
	dirs := map[string]Direction{}
	for _, r := range d.Records {
		dirs[r.Name] = r.Better
	}
	if dirs[`metric.nassim_pipeline_stage_seconds_sum{stage="parse"}`] != LowerBetter {
		t.Error("duration record not lower-better")
	}
	if dirs[`metric.nassim_pipeline_stage_total{outcome="run"}`] != Info {
		t.Error("counter record not info")
	}
	if !strings.Contains(string(data), `"better":"higher"`) {
		t.Errorf("direction not encoded by name: %s", data)
	}
	// Every document must be diffable against itself with no findings.
	res, err := Compare(data, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() || len(res.AddedCurrent) != 0 {
		t.Errorf("self-compare not clean: %+v", res)
	}
}

var reconcileBase = []Record{
	SingleShot("cycle_p50_ms", "ms", 12.5, SingleShotFloorMs),
	SingleShot("cycle_mean_ms", "ms", 13.1, SingleShotFloorMs),
	SingleShot("probe_p50_ms", "ms", 1.1, SingleShotFloorMs),
	SingleShot("probe_p99_ms", "ms", 9.4, SingleShotFloorMs),
	Higher("probes_per_sec", "1/s", 4800).Gate(SpeedupTolerance, 0),
	Higher("cache_hit_ratio", "ratio", 0.75),
	Lower("health.unreachable", "count", 0),
	Informational("n", "count", 5),
	Informational("devices", "count", 64),
	Informational("drift_actions", "count", 40),
	Informational("health.converged", "count", 50),
	Informational("health.drifted", "count", 14),
	Informational("health.degraded", "count", 0),
}

// TestFlattenReconcileGates pins the reconcile records' gates: an
// unreachable device or a cache-hit collapse regresses, cycle timings gate
// with the single-shot millisecond floor.
func TestFlattenReconcileGates(t *testing.T) {
	if res := compare(t, reconcileBase, set(t, reconcileBase, "health.unreachable", 3)); !res.Failed() {
		t.Error("newly unreachable devices did not fail the gate")
	}
	if res := compare(t, reconcileBase, set(t, reconcileBase, "cache_hit_ratio", 0.1)); !res.Failed() {
		t.Error("cache-hit collapse did not fail the gate")
	}
	// A cycle timing tripling from 12.5ms to 36ms is under the 25ms floor's
	// protection only up to +25ms; +23.5ms stays noise.
	if res := compare(t, reconcileBase, set(t, reconcileBase, "cycle_p50_ms", 36)); res.Failed() {
		t.Errorf("sub-floor cycle jitter failed the gate: %+v", res.Regressions())
	}
}

func TestFlattenRejectsUnknownSchema(t *testing.T) {
	v1 := []byte(`{"schema":"nassim-chaos-bench/v1","n":10,"exec_p50_ms":0}`)
	for name, doc := range map[string][]byte{
		"v1 document":       v1,
		"unknown schema":    []byte(`{"schema":"nope/v0"}`),
		"schema-less":       []byte(`{}`),
		"no host block":     []byte(`{"schema":"nassim-bench/v2","records":[]}`),
		"unknown direction": []byte(strings.Replace(string(encode(t, Lower("a", "ms", 1))), `"lower"`, `"sideways"`, 1)),
		"duplicate record":  encode(t, Lower("a", "ms", 1), Lower("a", "ms", 2)),
		"unnamed record":    encode(t, Lower("", "ms", 1)),
	} {
		if _, err := Flatten(doc); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Compare(encode(t, frontendBase...), v1); err == nil {
		t.Error("cross-schema compare accepted")
	}
}

func TestZeroBaseline(t *testing.T) {
	base := []Record{Informational("n", "count", 10), Lower("exec_p50_ms", "ms", 0), Lower("retries", "count", 0)}
	res := compare(t, base, set(t, base, "exec_p50_ms", 5))
	var d *Delta
	for i := range res.Deltas {
		if res.Deltas[i].Name == "exec_p50_ms" {
			d = &res.Deltas[i]
		}
	}
	if d == nil || !math.IsInf(d.Change, 1) || !d.Regressed {
		t.Fatalf("zero-baseline growth delta = %+v", d)
	}
}

func TestWriterRewritesAfterEveryPut(t *testing.T) {
	t.Setenv(EnvDir, "")
	if w := NewWriter("x"); w != nil {
		t.Fatal("writer enabled without " + EnvDir)
	}
	var off *Writer
	if err := off.Put(Lower("a", "ms", 1)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Setenv(EnvDir, dir)
	w := NewWriter("x")
	if w == nil {
		t.Fatal("writer disabled with " + EnvDir + " set")
	}
	if err := w.Put(Lower("b", "ms", 1), Lower("a", "ms", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(Lower("a", "ms", 2)); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Value("a"); !ok || v != 2 {
		t.Fatalf("Value(a) = %v, %v", v, ok)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_x.json"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Flatten(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Host != CurrentHost() || len(d.Records) != 2 || d.Records[0].Value != 2 {
		t.Fatalf("document = %+v", d)
	}
}

// TestCommittedBaselines reads every BENCH_*.json committed at the repo
// root: each must be a v2 document with a host block, a unit and a
// direction on every record, and no duplicate names.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Flatten(data) // rejects other schemas, duplicates, bad directions
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		h := d.Host
		if h.GOOS == "" || h.GOARCH == "" || h.GoVersion == "" || h.GOMAXPROCS < 1 || h.NumCPU < 1 {
			t.Errorf("%s: incomplete host block %+v", p, h)
		}
		if len(d.Records) == 0 {
			t.Errorf("%s: no records", p)
		}
		for _, r := range d.Records {
			if r.Unit == "" {
				t.Errorf("%s: record %s has no unit", p, r.Name)
			}
		}
	}
}
