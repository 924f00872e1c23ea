package benchdiff

import "testing"

// serveBase mirrors the records cmd/loadgen writes to BENCH_serve.json.
var serveBase = []Record{
	SingleShot("latency_p50_ms", "ms", 4.5, SingleShotFloorMs),
	SingleShot("latency_p99_ms", "ms", 16, SingleShotFloorMs),
	SingleShot("latency_mean_ms", "ms", 4.8, SingleShotFloorMs),
	Higher("rps", "1/s", 1600).Gate(SpeedupTolerance, 0),
	Higher("dedup_hit_ratio", "ratio", 0.99),
	Higher("dedup_8way.hit_ratio", "ratio", 0.875),
	Lower("dedup_8way.executions", "count", 1),
	Lower("queue.max_depth", "count", 0).Gate(DefaultTimingTolerance, 8),
	Lower("queue.shed", "count", 0).Gate(DefaultTimingTolerance, 8),
	Lower("errors", "count", 0),
	Informational("requests", "count", 400),
	Informational("dedup_8way.clients", "count", 8),
	Informational("duration_ms", "ms", 250),
}

func TestFlattenServe(t *testing.T) {
	d, err := Flatten(encode(t, serveBase...))
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]Direction{}
	for _, r := range d.Records {
		dirs[r.Name] = r.Better
	}
	for name, want := range map[string]Direction{
		"latency_p50_ms":        LowerBetter,
		"latency_p99_ms":        LowerBetter,
		"latency_mean_ms":       LowerBetter,
		"rps":                   HigherBetter,
		"dedup_hit_ratio":       HigherBetter,
		"dedup_8way.hit_ratio":  HigherBetter,
		"dedup_8way.executions": LowerBetter,
		"queue.max_depth":       LowerBetter,
		"queue.shed":            LowerBetter,
		"errors":                LowerBetter,
		"requests":              Info,
		"duration_ms":           Info,
	} {
		got, ok := dirs[name]
		if !ok {
			t.Errorf("record %s missing from decoded serve document", name)
			continue
		}
		if got != want {
			t.Errorf("record %s direction %v; want %v", name, got, want)
		}
	}
	if res := compare(t, serveBase, serveBase); res.Failed() {
		t.Fatalf("identical serve documents failed: %+v", res)
	}
}

func TestFlattenServeGates(t *testing.T) {
	// The singleflight invariant: a second execution for the 8-way fan-in
	// is a dedup regression, whatever the timings say.
	if res := compare(t, serveBase, set(t, serveBase, "dedup_8way.executions", 2)); !res.Failed() {
		t.Error("dedup_8way executions doubling did not fail the gate")
	}
	// A warm-phase dedup collapse regresses as a higher-better ratio.
	if res := compare(t, serveBase, set(t, serveBase, "dedup_hit_ratio", 0.2)); !res.Failed() {
		t.Error("dedup hit ratio collapse did not fail the gate")
	}
	// An RPS collapse past the speedup tolerance trips the gate.
	if res := compare(t, serveBase, set(t, serveBase, "rps", 300)); !res.Failed() {
		t.Error("RPS collapse did not fail the gate")
	}
	// Request errors appearing from a zero baseline regress (+Inf change).
	if res := compare(t, serveBase, set(t, serveBase, "errors", 3)); !res.Failed() {
		t.Error("new request errors did not fail the gate")
	}
	// Millisecond-scale latency jitter under the single-shot floor passes:
	// 4.5ms -> 20ms is a 4.4x ratio but under the 25ms absolute floor.
	if res := compare(t, serveBase, set(t, serveBase, "latency_p50_ms", 20)); res.Failed() {
		t.Errorf("sub-floor latency jitter failed the gate: %+v", res.Regressions())
	}
	// A queue blip 0 -> 3 stays under the absolute floor; 0 -> 20 regresses.
	if res := compare(t, serveBase, set(t, serveBase, "queue.max_depth", 3)); res.Failed() {
		t.Errorf("sub-floor queue blip failed the gate: %+v", res.Regressions())
	}
	if res := compare(t, serveBase, set(t, serveBase, "queue.max_depth", 20)); !res.Failed() {
		t.Error("queue backlog growth did not fail the gate")
	}
	// A dropped record (benchmark silently truncated) is itself a failure.
	var truncated []Record
	for _, r := range serveBase {
		if r.Name != "dedup_hit_ratio" {
			truncated = append(truncated, r)
		}
	}
	res := compare(t, serveBase, truncated)
	if len(res.MissingCurrent) != 1 || !res.Failed() {
		t.Errorf("dropped dedup_hit_ratio: missing=%v failed=%v", res.MissingCurrent, res.Failed())
	}
}
