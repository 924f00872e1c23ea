// Command nassimbench is the repository's end-to-end benchmark. It
// generates seeded inputs itself, times calls into each layer's public
// functions from outside the program, checks every output against the
// ground-truth model the inputs were generated from, and prints one JSON
// result line:
//
//	bash nassimbench/run.sh --workload onboard --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around each layer call on every other operation (the
// operations in between give the tracing overhead). Every run reports
// every metric of its mode: a layer the workload does not exercise reads
// 0, and so does a percentile its samples cannot support, which the run's
// output names as refused.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds what a run leaves behind (span dumps); run.sh keeps its
// build cache and binary there too.
const outDir = ".nassimbench"

// commit is the source revision, stamped by run.sh at build time.
var commit = "unknown"

// setupReps is how often each workload repeats its set-up; setup_s is
// the median.
const setupReps = 11

// benchmarkFile names the metrics and their units: the end-to-end ones
// every untraced run reports and the per-layer ones every traced run
// reports. The benchmark runs from the repository root, where it lives.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadMetricSpecs() (endToEnd, perLayer []metricSpec, err error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

// run is one benchmark invocation's settings.
type run struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	tr       *tracer // non-nil in traced runs
}

// opTracer returns the tracer for operation op: in a traced run every
// other operation is traced, the rest run bare so their latencies give
// the tracing overhead. It returns nil for untraced operations.
func (r *run) opTracer(op int) *tracer {
	if r.tr == nil || op%2 == 1 {
		return nil
	}
	return r.tr
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	failures          []string // the first few check failures, for stderr

	setup []time.Duration // one per set-up repetition
	// lat holds the latency of every untraced operation; tracedLat of
	// every traced one.
	lat, tracedLat []time.Duration
	// rates holds the work completed per second (commands, requests,
	// probes): one per successful operation, or for serve-mixed one per
	// second of the run. items_per_s is their median, so a burst
	// of host contention moves it no more than it moves p50_ms.
	rates []float64
	// busy is the time spent in the measured calls.
	busy time.Duration

	layers map[string]float64
	notes  []string // per-op attribution lines and refusals, for stdout

	// Runtime counters summed over the measured calls only, so the
	// benchmark's own input generation between operations stays out.
	allocBytes, gcs uint64
	cpu             time.Duration
}

// measure runs f, which makes the measured calls, and adds the
// process-wide runtime counters' growth over it to the result.
func (res *result) measure(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU()
	f()
	c1 := processCPU()
	runtime.ReadMemStats(&m1)
	res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	res.gcs += uint64(m1.NumGC - m0.NumGC)
	res.cpu += c1 - c0
}

// processCPU is the process's user plus system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func newResult() *result { return &result{layers: map[string]float64{}} }

// fail records a failed check on the current operation.
func (res *result) fail(format string, args ...any) {
	if len(res.failures) < 20 {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
}

// tail reports the q-percentile of lat as a per-layer metric, or notes
// the refusal when too few samples lie beyond it.
func (res *result) tail(name string, lat []time.Duration, q float64) {
	v, err := percentile(sortedMS(lat), q)
	if err != nil {
		res.notes = append(res.notes, fmt.Sprintf("%s refused: %v", name, err))
		return
	}
	res.layers[name] = v
}

// check tallies one operation and its failed checks.
func (res *result) check(bad bool) {
	res.attempted++
	if bad {
		res.failed++
	}
}

var workloads = map[string]func(*run, *result) error{
	"onboard":         onboard,
	"serve-mixed":     serveMixed,
	"reconcile-fleet": reconcileFleet,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload to run: onboard, serve-mixed, reconcile-fleet")
	seed := flag.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "nassimbench: need --workload in %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	endToEnd, perLayer, err := loadMetricSpecs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nassimbench: %v\n", err)
		return 1
	}
	r := &run{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	if r.traced {
		r.tr = newTracer()
	}
	printJSONLine(map[string]any{"host": hostInfo(r)})

	res := newResult()
	steal0, total0 := hostSteal()
	if err := fn(r, res); err != nil {
		fmt.Fprintf(os.Stderr, "nassimbench: %s: %v\n", r.workload, err)
		return 1
	}
	if res.attempted == 0 {
		fmt.Fprintf(os.Stderr, "nassimbench: %s: no operation completed\n", r.workload)
		return 1
	}

	e2e := map[string]float64{
		"setup_s":     median(secondsOf(res.setup)),
		"peak_rss_mb": peakRSSMB(),
	}
	// onboard's paper-scale operations take seconds, so its runs hold
	// about a dozen and its median has fewer than minBeyond samples
	// above it. The median is still the workload's end-to-end latency, so it
	// is reported, and the run says how few samples it rests on.
	p50, err := percentile(sortedMS(res.lat), 0.5)
	if err != nil {
		p50 = median(sortedMS(res.lat))
		res.notes = append(res.notes, fmt.Sprintf("p50_ms is the plain median: %v", err))
	}
	e2e["p50_ms"] = p50
	e2e["items_per_s"] = median(res.rates)
	ops := float64(res.attempted)
	res.layers["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	res.layers["runtime.alloc_mb_per_op"] = float64(res.allocBytes) / (1 << 20) / ops
	res.layers["runtime.gc_per_op"] = float64(res.gcs) / ops
	res.layers["runtime.cpu_ms_per_op"] = ms(res.cpu) / ops
	res.notes = append(res.notes, fmt.Sprintf("process CPU %.1f ms per op over %.1f ms wall on %d cores",
		ms(res.cpu)/ops, ms(res.busy)/ops, runtime.GOMAXPROCS(0)))
	if steal1, total1 := hostSteal(); total1 > total0 {
		res.notes = append(res.notes, fmt.Sprintf("host steal %.2f%% of CPU time during the run",
			100*float64(steal1-steal0)/float64(total1-total0)))
	}
	if r.traced {
		if t, u := median(sortedMS(res.tracedLat)), median(sortedMS(res.lat)); t > 0 && u > 0 {
			res.layers["trace.overhead_pct"] = 100 * (t - u) / u
		}
		path, err := r.tr.write(outDir, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nassimbench: writing spans: %v\n", err)
			return 1
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(r.tr.spans), path))
	}

	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "nassimbench: check failed: %s\n", f)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	// The table shows every metric; the last line carries the set the
	// run's mode reports.
	printTable("end-to-end", endToEnd, e2e)
	if r.traced {
		printTable("per-layer", perLayer, res.layers)
	}
	specs, vals := endToEnd, e2e
	if r.traced {
		specs, vals = perLayer, res.layers
	}
	metrics := map[string]any{}
	for _, s := range specs {
		metrics[s.Name] = map[string]any{"value": vals[s.Name], "unit": s.Unit}
	}
	printJSONLine(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings reach here
	}
	fmt.Println(string(b))
}

func printTable(title string, specs []metricSpec, vals map[string]float64) {
	fmt.Printf("%s:\n", title)
	for _, s := range specs {
		fmt.Printf("  %-34s %14.4f %s\n", s.Name, vals[s.Name], s.Unit)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo describes where the numbers were measured. Before Go 1.25
// GOMAXPROCS ignores a container's CPU quota, so both are recorded.
func hostInfo(r *run) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.dur.Seconds(),
		"traced":     r.traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_quota":  cpuQuota(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSteal reads the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable). On a shared virtual machine
// the hypervisor's steal slows every wall-clock metric, the more so for
// garbage-collected work that must stop all threads, so each run reports
// its share.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] { // user … steal; guest time is already in user
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuQuota reads the cgroup v2 CPU limit ("max" when unlimited).
func cpuQuota() string {
	b, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if errors.Is(err, os.ErrNotExist) {
		return "none"
	}
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
