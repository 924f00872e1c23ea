package nassim_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"nassim"
	"nassim/internal/telemetry"
)

func marshalVDM(t *testing.T, v *nassim.VDM) []byte {
	t.Helper()
	data, err := v.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAssimilateGoldenWarmCache is the end-to-end cache contract over all
// four vendors: a warm re-run against the shared cache must execute zero
// stages (observable both in RunStats and in the stage-skip counter) and
// produce byte-identical marshalled VDMs.
func TestAssimilateGoldenWarmCache(t *testing.T) {
	opts := nassim.Options{Scale: 0.02, Workers: 2, Validate: true,
		Cache: nassim.NewPipelineCache()}

	cold, err := nassim.Assimilate(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Skips() != 0 || cold.Stats.Runs() == 0 {
		t.Fatalf("cold stats: %v", cold.Stats)
	}
	golden := make(map[string][]byte)
	for _, asr := range cold.Results {
		golden[string(asr.Model.Vendor)] = marshalVDM(t, asr.VDM)
	}

	skipCounters := func() int64 {
		var n int64
		for _, st := range nassim.PipelineStages() {
			n += telemetry.GetCounter("nassim_pipeline_stage_total",
				"stage", string(st), "outcome", "cache_hit").Value()
		}
		return n
	}
	skipsBefore := skipCounters()

	warm, err := nassim.Assimilate(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Runs() != 0 {
		t.Errorf("warm re-run executed stages: %v", warm.Stats)
	}
	if got := skipCounters() - skipsBefore; got != int64(warm.Stats.Skips()) || got == 0 {
		t.Errorf("stage-skip counter advanced by %d, stats say %d skips", got, warm.Stats.Skips())
	}
	for _, asr := range warm.Results {
		if !bytes.Equal(golden[string(asr.Model.Vendor)], marshalVDM(t, asr.VDM)) {
			t.Errorf("%s: warm VDM differs from cold VDM", asr.Model.Vendor)
		}
	}
}

// TestAssimilateParallelMatchesSequential pins the determinism contract:
// a 4-worker run over the four built-in vendors yields VDMs byte-identical
// to a sequential run.
func TestAssimilateParallelMatchesSequential(t *testing.T) {
	seq, err := nassim.Assimilate(context.Background(), nassim.Options{Scale: 0.02, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := nassim.Assimilate(context.Background(), nassim.Options{Scale: 0.02, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Model.Vendor != p.Model.Vendor {
			t.Fatalf("order differs at %d: %s vs %s", i, s.Model.Vendor, p.Model.Vendor)
		}
		if !bytes.Equal(marshalVDM(t, s.VDM), marshalVDM(t, p.VDM)) {
			t.Errorf("%s: parallel VDM differs from sequential", s.Model.Vendor)
		}
	}
}

// TestAssimilateCancelledContext: a cancelled context aborts the run at a
// stage boundary with context.Canceled and without leaking goroutines.
func TestAssimilateCancelledContext(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := nassim.Assimilate(ctx, nassim.Options{Scale: 0.02, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, asr := range res.Results {
		if asr != nil {
			t.Errorf("result %d produced despite cancellation", i)
		}
	}
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestAssimilateDiskCache: a fresh process-equivalent (empty memory cache,
// same CacheDir) warm-starts the persisted stages.
func TestAssimilateDiskCache(t *testing.T) {
	dir := t.TempDir()
	cold, err := nassim.Assimilate(context.Background(), nassim.Options{
		Vendors: []string{"H3C"}, Scale: 0.02, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := nassim.Assimilate(context.Background(), nassim.Options{
		Vendors: []string{"H3C"}, Scale: 0.02, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.StageSkips[nassim.PipelineStages()[0]] != 1 {
		t.Errorf("parse stage not warm-started from disk: %v", warm.Stats)
	}
	if !bytes.Equal(marshalVDM(t, cold.Results[0].VDM), marshalVDM(t, warm.Results[0].VDM)) {
		t.Error("disk-cached VDM differs")
	}
}

// TestAssimilateTimerObservesStages: Result.Stats.StageWall times the
// executed stages only, so a warm re-run over the same cache adds none.
func TestAssimilateTimerObservesStages(t *testing.T) {
	cache := nassim.NewPipelineCache()
	cold, err := nassim.Assimilate(context.Background(), nassim.Options{
		Vendors: []string{"Cisco"}, Scale: 0.02, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Stats.StageWall) == 0 {
		t.Fatal("cold run timed no stage")
	}
	for st, n := range cold.Stats.StageRuns {
		if _, ok := cold.Stats.StageWall[st]; !ok {
			t.Errorf("%s ran %d time(s) but has no wall time", st, n)
		}
	}
	if rows := cold.Stats.StageTimes(); len(rows) != len(cold.Stats.StageRuns) {
		t.Errorf("stage table has %d rows for %d executed stages", len(rows), len(cold.Stats.StageRuns))
	}
	warm, err := nassim.Assimilate(context.Background(), nassim.Options{
		Vendors: []string{"Cisco"}, Scale: 0.02, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Stats.StageWall) != 0 {
		t.Errorf("warm re-run timed cache hits: %v", warm.Stats.StageWall)
	}
}
