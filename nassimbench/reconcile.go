package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"nassim"
	"nassim/internal/reconciler"
)

// fleetDevices sizes the reconcile-fleet workload.
const fleetDevices = 256

// reconcileFleet runs reconciler.RunCycle back to back over a
// mixed-vendor fleet served over net.Pipe under the churn+skew+flap
// scenario. Set-up is reconciler.New plus the first cycle.
func reconcileFleet(r *run, res *result) (err error) {
	sc, err := reconciler.ScenarioByName("churn+skew+flap")
	if err != nil {
		return err
	}
	spec := reconciler.FleetSpec{Vendors: nassim.Vendors(), Devices: fleetDevices,
		Seed: derive(r.seed, 6, 0), Scenario: sc, Transport: reconciler.TransportPipe}
	ctx := context.Background()
	var rc *reconciler.Reconciler
	var first []byte
	for i := 0; i < setupReps; i++ {
		if rc != nil {
			if err := rc.Close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if rc, err = reconciler.New(ctx, reconciler.Config{Spec: spec}); err != nil {
			return err
		}
		cr, err := rc.RunCycle(ctx)
		if err != nil {
			rc.Close()
			return err
		}
		res.setup = append(res.setup, time.Since(t0))
		if first, err = json.Marshal(cr.Plan.Actions); err != nil {
			rc.Close()
			return err
		}
	}
	defer func() {
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
	}()
	fleet := rc.Fleet()

	var probe, reval, hit, invalidated []float64
	var probeLat []time.Duration
	retries0, faults0 := fleet.Retries(), faults(fleet)
	for op := 0; res.busy < r.dur; op++ {
		var cr *reconciler.CycleResult
		var t0 time.Time
		var wall time.Duration
		res.measure(func() {
			t0 = time.Now()
			cr, err = rc.RunCycle(ctx)
			wall = time.Since(t0)
		})
		res.busy += wall
		tr := r.opTracer(op)
		if tr != nil {
			res.tracedLat = append(res.tracedLat, wall)
		} else {
			res.lat = append(res.lat, wall)
		}
		if err != nil {
			res.fail("reconcile cycle %d: %v", op, err)
			res.check(true)
			continue
		}
		bad := checkPlan(res, spec, sc, cr, first)
		res.check(bad)
		if bad {
			continue
		}
		res.rates = append(res.rates, float64(len(cr.Reports))/wall.Seconds())
		if tr == nil {
			continue
		}
		// The reconciler reports its own phase durations; spans are placed
		// from them (probing first, revalidation last).
		tr.add(op, "reconciler.cycle", "", t0, t0.Add(wall))
		tr.add(op, "reconciler.probe", "reconciler.cycle", t0, t0.Add(cr.Wall-cr.Stats.Wall))
		tr.add(op, "pipeline.revalidate", "reconciler.cycle", t0.Add(cr.Wall-cr.Stats.Wall), t0.Add(cr.Wall))
		probe = append(probe, ms(cr.Wall-cr.Stats.Wall))
		reval = append(reval, ms(cr.Stats.Wall))
		hit = append(hit, cr.CacheHitRatio())
		invalidated = append(invalidated, float64(cr.Invalidated))
		for _, rep := range cr.Reports {
			probeLat = append(probeLat, rep.Latency)
		}
	}
	cycles := float64(res.attempted)
	res.tail("p90_ms", res.lat, 0.90)
	L := res.layers
	L["reconciler.probe_ms"] = median(probe)
	L["pipeline.revalidate_ms"] = median(reval)
	L["device.probe_p50_ms"] = median(sortedMS(probeLat))
	res.tail("device.probe_p99_ms", probeLat, 0.99)
	L["device.retries_per_cycle"] = float64(fleet.Retries()-retries0) / cycles
	L["faultnet.faults_per_cycle"] = float64(faults(fleet)-faults0) / cycles
	L["reconciler.cache_hit_ratio"] = mean(hit)
	L["reconciler.invalidated_per_cycle"] = mean(invalidated)
	return nil
}

func faults(f *reconciler.Fleet) int64 {
	s := f.Stats()
	return s.Dropped + s.Resets + s.Spikes + s.Garbled + s.Truncated
}

// checkPlan holds one cycle's plan to the drift the scenario planted: a
// clean device has no action, a firmware-skewed one exactly one
// firmware_skew action, unmanaged lines exactly their extra_cli actions,
// and missing or skewed lines appear only where the scenario drops or
// skews lines. No device is unreachable, the plan is not deferred, and
// its actions are byte-identical to the first cycle's.
func checkPlan(res *result, spec reconciler.FleetSpec, sc reconciler.Scenario, cr *reconciler.CycleResult, first []byte) bool {
	bad := false
	fail := func(format string, args ...any) {
		res.fail("reconcile cycle %d: "+format, append([]any{cr.Cycle}, args...)...)
		bad = true
	}
	p := cr.Plan
	if p.Health.Unreachable != 0 || p.Deferred {
		fail("%d unreachable devices, deferred %v", p.Health.Unreachable, p.Deferred)
	}
	byDevice := map[string]map[string][]string{}
	for _, a := range p.Actions {
		if byDevice[a.Device] == nil {
			byDevice[a.Device] = map[string][]string{}
		}
		byDevice[a.Device][a.Class] = append(byDevice[a.Device][a.Class], a.Line)
	}
	for i := 0; i < spec.Devices; i++ {
		vendor := spec.Vendors[i%len(spec.Vendors)]
		id := fmt.Sprintf("%s-%04d", vendor, i)
		d := sc.Drift(spec.Seed, i, spec.Devices)
		got := byDevice[id]
		delete(byDevice, id)
		if !d.Drifted() {
			if len(got) > 0 {
				fail("clean device %s has actions %v", id, got)
			}
			continue
		}
		if n := len(got["firmware_skew"]); (n == 1) != d.FirmwareSkew || n > 1 {
			fail("device %s: %d firmware_skew actions, planted %v", id, n, d.FirmwareSkew)
		}
		var wantExtra []string
		for k := 0; k < d.ExtraLines; k++ {
			wantExtra = append(wantExtra, fmt.Sprintf("! legacy unmanaged-%d site %04d", k, i))
		}
		gotExtra := append([]string(nil), got["extra_cli"]...)
		sort.Strings(gotExtra)
		if strings.Join(gotExtra, "\n") != strings.Join(wantExtra, "\n") {
			fail("device %s: extra_cli %q, planted %q", id, gotExtra, wantExtra)
		}
		if len(got["missing_cli"]) > 0 && d.MissingFrac == 0 {
			fail("device %s: missing_cli actions without planted removals", id)
		}
		if len(got["param_skew"]) > 0 && d.SkewFrac == 0 {
			fail("device %s: param_skew actions without planted skew", id)
		}
	}
	if len(byDevice) > 0 {
		fail("actions for %d devices outside the fleet", len(byDevice))
	}
	b, err := json.Marshal(p.Actions)
	if err != nil || string(b) != string(first) {
		fail("actions differ from the first cycle's")
	}
	return bad
}
