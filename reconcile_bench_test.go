package nassim_test

import (
	"context"
	"testing"
	"time"

	"nassim"
	"nassim/internal/benchdiff"
)

// BenchmarkReconcileFleet measures one reconcile cycle over a 64-device
// mixed-vendor fleet running the combined churn+skew+flap scenario: probe
// every device through its resilient client, classify drift, re-validate
// only the invalidated pipeline stages, and build the plan. The first
// (unmeasured) cycle warms the artifact cache, so measured cycles show the
// steady-state economy. With NASSIM_BENCH_DIR set (make bench-reconcile)
// the figures export as BENCH_reconcile.json.
func BenchmarkReconcileFleet(b *testing.B) {
	sc, err := nassim.FleetScenarioByName("churn+skew+flap")
	if err != nil {
		b.Fatal(err)
	}
	const devices = 64
	ctx := context.Background()
	r, err := nassim.NewFleetReconciler(ctx, nassim.ReconcilerConfig{
		Spec:        nassim.FleetSpec{Devices: devices, Scale: 0.02, Seed: 17, Scenario: sc},
		MaxParallel: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunCycle(ctx); err != nil { // warm the artifact cache
		b.Fatal(err)
	}

	cycleLat := make([]time.Duration, 0, b.N)
	var last *nassim.ReconcileCycle
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		cr, err := r.RunCycle(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cycleLat = append(cycleLat, cr.Wall)
		last = cr
	}
	elapsed := time.Since(start)
	b.StopTimer()

	p50, _ := latencyQuantiles(cycleLat)
	var total time.Duration
	for _, d := range cycleLat {
		total += d
	}
	meanMs := float64(total.Microseconds()) / 1e3 / float64(len(cycleLat))
	probesPerSec := float64(devices*b.N) / elapsed.Seconds()
	b.ReportMetric(float64(p50.Microseconds())/1e3, "cycle_p50_ms")
	b.ReportMetric(probesPerSec, "probes/sec")
	b.ReportMetric(last.CacheHitRatio(), "cache_hit_ratio")

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	// Cycle and probe timings come from a handful of cycles, so they gate
	// like single-shot measurements with a millisecond floor.
	timing := func(name string, v float64) benchdiff.Record {
		return benchdiff.SingleShot(name, "ms", v, benchdiff.SingleShotFloorMs)
	}
	err = benchdiff.NewWriter("reconcile").Put(
		timing("cycle_p50_ms", ms(p50)),
		timing("cycle_mean_ms", meanMs),
		timing("probe_p50_ms", ms(last.ProbeP50)),
		timing("probe_p99_ms", ms(last.ProbeP99)),
		benchdiff.Higher("probes_per_sec", "1/s", probesPerSec).Gate(benchdiff.SpeedupTolerance, 0),
		// The cache economy and fleet health are seeded and deterministic:
		// any unreachable device is a robustness regression, and a
		// cache-hit collapse means revalidation stopped being incremental.
		benchdiff.Higher("cache_hit_ratio", "ratio", last.CacheHitRatio()),
		benchdiff.Lower("health.unreachable", "count", float64(last.Health[nassim.FleetUnreachable])),
		benchdiff.Informational("n", "count", float64(len(cycleLat))),
		benchdiff.Informational("devices", "count", devices),
		benchdiff.Informational("drift_actions", "count", float64(len(last.Plan.Actions))),
		benchdiff.Informational("health.converged", "count", float64(last.Health[nassim.FleetConverged])),
		benchdiff.Informational("health.drifted", "count", float64(last.Health[nassim.FleetDrifted])),
		benchdiff.Informational("health.degraded", "count", float64(last.Health[nassim.FleetDegraded])),
	)
	if err != nil {
		b.Fatal(err)
	}
}
