package nassim

import (
	"context"
	"path/filepath"
	"time"

	"nassim/internal/obsreport"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// This file is the engine-driven entry point: Assimilate drives the staged
// pipeline (internal/pipeline) over any number of vendors, with bounded
// per-vendor parallelism, content-hash artifact caching, and cancellation
// at stage boundaries. The synthetic substrates (model, manual, configs,
// device) stand in for the paper's proprietary inputs exactly as in the
// step-by-step API.

// Pipeline engine types re-exported for callers tuning Assimilate.
type (
	// PipelineStage names one engine stage (Parse, SyntaxValidate, ...).
	PipelineStage = pipeline.Stage
	// PipelineCache is the shared in-memory artifact store; pass one cache
	// to successive Assimilate calls to make warm re-runs skip unchanged
	// stages.
	PipelineCache = pipeline.MemStore
	// PipelineStats aggregates stage outcomes (runs vs cache hits) and
	// per-stage wall time over one Assimilate call.
	PipelineStats = pipeline.RunStats
)

// NewPipelineCache returns an empty shareable artifact cache.
func NewPipelineCache() *PipelineCache { return pipeline.NewMemStore() }

// PipelineStages lists the engine's stages in execution order.
func PipelineStages() []PipelineStage { return pipeline.Stages() }

// Options configures one Assimilate run.
type Options struct {
	// Vendors to assimilate; empty runs the four built-in vendors in
	// Table 4 order.
	Vendors []string
	// Scale is the synthetic corpus scale (1.0 = paper scale); <= 0
	// defaults to 0.1.
	Scale float64
	// Workers bounds per-vendor parallelism; <= 1 runs sequentially.
	// Results are deterministic and identical for any worker count.
	Workers int
	// StageWorkers bounds the intra-stage fan-out of the front-end stages
	// (manual pages parsed concurrently, configuration files matched
	// concurrently) within each vendor job; <= 1 keeps those stages
	// sequential. Results are identical for any value.
	StageWorkers int
	// Cache is the artifact store consulted before every stage; nil uses a
	// fresh store (no reuse across calls).
	Cache *PipelineCache
	// CacheDir, when set, mirrors the expensive artifacts (parse output,
	// derived VDM) on disk so later processes warm-start from them.
	CacheDir string
	// Validate runs empirical configuration validation (§5.3, Figure 8)
	// for vendors with a synthetic configuration corpus.
	Validate bool
	// LiveTest exercises commands unused by the configuration corpus
	// against an in-process simulated device (§5.3).
	LiveTest        bool
	PathsPerCommand int    // CGM paths instantiated per live-tested command (default 1)
	Seed            uint64 // live-test instantiation seed
	// Chaos, with LiveTest, serves each vendor's device over TCP behind a
	// fault-injecting listener and reaches it through a resilient client
	// (retry, circuit breaking, session replay). Each vendor derives its
	// own fault/jitter seeds from the profile's, so runs are deterministic
	// for any worker count. A device that stays unreachable degrades its
	// vendor's live report (see AssimilationResult.DegradedStages) instead
	// of failing the run.
	Chaos *ChaosProfile
	// LiveFailureBudget is the live stage's transport-failure budget; see
	// the pipeline Job field of the same name. 0 takes the default.
	LiveFailureBudget int
	// Report builds the run observatory's per-run manifest: input content
	// hashes, per-stage outcomes and attempts, cache hit/miss, worker-pool
	// utilization, metrics delta, and a span summary, with every duration
	// and timestamp quarantined in the manifest's timing block. The result
	// carries it, /debug/lastrun serves it, and with CacheDir set it is
	// also written under CacheDir/manifests/.
	Report bool
	// ProfileStages, when set, brackets every actual stage execution with
	// pprof CPU + heap captures written to this directory (the flight
	// recorder). CPU profiling is process-global, so overlapping stages
	// serialize on the recorder; run with Workers <= 1 for faithful
	// per-stage attribution.
	ProfileStages string
	// StageHook observes actual stage executions (cache hits never fire
	// it): it is called immediately before each execution attempt and the
	// returned func — which may be nil — runs when the attempt finishes.
	// The serving daemon streams live per-stage progress through it; it
	// composes with ProfileStages (both hooks fire). The hook is called
	// from the engine's worker goroutines, so it must be safe for
	// concurrent use.
	StageHook func(vendor string, stage PipelineStage) func()
}

// Result is the outcome of one Assimilate run.
type Result struct {
	// Results holds one entry per requested vendor, in request order. A
	// vendor whose job failed or was cancelled leaves a nil entry and the
	// run's error says why.
	Results []*AssimilationResult
	// Stats aggregates stage outcomes: Stats.Skips() > 0 means the
	// artifact cache satisfied stages without re-running them, and
	// Stats.StageWall holds the wall time of the stages that did run.
	Stats PipelineStats
	// Report is the per-run manifest when Options.Report was set.
	Report *RunReport
	// Profiles lists the flight recorder's capture files when
	// Options.ProfileStages was set.
	Profiles []string
}

// Assimilate runs the complete SNA pipeline for the requested vendors:
// render each synthetic manual, parse it, validate the syntax, apply the
// (simulated) expert corrections, derive the view hierarchy, and
// optionally validate against configurations and a live device. Vendors
// are assimilated concurrently up to Options.Workers; cancelling ctx stops
// the run at the next stage boundary.
func Assimilate(ctx context.Context, opts Options) (*Result, error) {
	vendors := opts.Vendors
	if len(vendors) == 0 {
		vendors = Vendors()
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 0.1
	}
	opts.Scale = scale
	models := make([]*DeviceModel, len(vendors))
	for i, vend := range vendors {
		m, err := SyntheticModel(vend, scale)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return assimilateModels(ctx, opts, models)
}

// AssimilateVendor is the single-vendor convenience form of Assimilate.
func AssimilateVendor(ctx context.Context, vendor string, scale float64) (*AssimilationResult, error) {
	res, err := Assimilate(ctx, Options{Vendors: []string{vendor}, Scale: scale})
	if err != nil {
		return nil, err
	}
	return res.Results[0], nil
}

// AssimilateModel runs the pipeline on an existing ground-truth model
// (evaluation code mutates models before assimilating them).
func AssimilateModel(ctx context.Context, m *DeviceModel) (*AssimilationResult, error) {
	res, err := assimilateModels(ctx, Options{}, []*DeviceModel{m})
	if err != nil {
		return nil, err
	}
	return res.Results[0], nil
}

// assimilateModels builds one engine job per model and runs them.
func assimilateModels(ctx context.Context, opts Options, models []*DeviceModel) (*Result, error) {
	cfg := pipeline.Config{
		Workers: opts.Workers, StageWorkers: opts.StageWorkers,
		Store: storeOrNil(opts.Cache), CacheDir: opts.CacheDir,
	}
	var flight *obsreport.FlightRecorder
	if opts.ProfileStages != "" {
		flight = obsreport.NewFlightRecorder(opts.ProfileStages)
		cfg.StageHook = flight.StageHook()
	}
	if opts.StageHook != nil {
		cfg.StageHook = chainStageHooks(cfg.StageHook, opts.StageHook)
	}
	eng, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	jobs := make([]pipeline.Job, len(models))
	// closers tears down the per-vendor chaos transports (server + client)
	// once the run is over.
	var closers []func()
	for i, m := range models {
		job := pipeline.Job{
			Vendor: string(m.Vendor),
			Pages:  SyntheticManual(m),
			Correct: func(flagged []vdm.InvalidCLI) []Correction {
				return ExpertCorrections(m, flagged)
			},
		}
		if opts.Validate {
			if files, ok := SyntheticConfigs(m, opts.Scale); ok {
				job.ConfigFiles = files
			}
		}
		if opts.LiveTest {
			dev, err := NewDevice(m)
			if err != nil {
				return nil, err
			}
			if opts.Chaos != nil {
				p := *opts.Chaos
				p.Seed = chaosSeed(opts.Chaos.Seed, i)
				srv, _, err := ServeDeviceChaos(dev, "127.0.0.1:0", p)
				if err != nil {
					closeAll(closers)
					return nil, err
				}
				// An assimilation run is thousands of exchanges, so the
				// interactive default retry budget would run dry mid-corpus;
				// the breaker still guards against a device that stays dead.
				rc := DialDeviceResilient(srv.Addr(), ResilientOptions{
					Seed:  chaosSeed(opts.Chaos.Seed, i) ^ 0xc1a05,
					Retry: RetryPolicy{Budget: -1},
				})
				closers = append(closers, func() { rc.Close(); srv.Close() })
				job.Exec = rc
			} else {
				job.Exec = SessionExecutor(dev.NewSession())
			}
			job.ShowCmd = dev.ShowConfigCommand()
			job.PathsPerCommand = opts.PathsPerCommand
			job.Seed = opts.Seed
			job.LiveFailureBudget = opts.LiveFailureBudget
		}
		jobs[i] = job
	}
	var collector *obsreport.Collector
	if opts.Report {
		collector = obsreport.NewCollector()
	}
	start := time.Now()
	jrs, runErr := eng.Run(ctx, jobs)
	closeAll(closers)
	res := &Result{
		Results: make([]*AssimilationResult, len(jrs)),
		Stats:   pipeline.Summarize(jrs, time.Since(start)),
	}
	if collector != nil {
		info := obsreport.RunInfo{
			Workers: opts.Workers, StageWorkers: opts.StageWorkers,
			Scale: opts.Scale, Seed: opts.Seed,
			Validate: opts.Validate, LiveTest: opts.LiveTest,
			Chaos: opts.Chaos != nil, LiveFailureBudget: opts.LiveFailureBudget,
		}
		for _, m := range models {
			info.Vendors = append(info.Vendors, string(m.Vendor))
		}
		res.Report = collector.Build(info, jrs)
		telemetry.SetLastRun(res.Report)
		if opts.CacheDir != "" {
			dir := filepath.Join(opts.CacheDir, "manifests")
			if err := res.Report.WriteFile(filepath.Join(dir, res.Report.RunID+".json")); err != nil {
				Logger("obsreport").Warn("manifest write failed", "err", err)
			} else if err := res.Report.WriteFile(filepath.Join(dir, "latest.json")); err != nil {
				Logger("obsreport").Warn("manifest write failed", "err", err)
			}
		}
	}
	if flight != nil {
		res.Profiles = flight.Captures()
		if err := flight.Err(); err != nil {
			Logger("obsreport").Warn("flight recorder", "err", err)
		}
	}
	for i, jr := range jrs {
		if jr == nil {
			continue
		}
		res.Results[i] = &AssimilationResult{
			Model: models[i],
			Parsed: &ParseResult{Corpora: jr.Corpora, Hierarchy: jr.Hierarchy,
				Completeness: jr.Completeness},
			VDM:                  jr.VDM,
			DeriveReport:         jr.Derive,
			PreCorrectionInvalid: len(jr.Invalid),
			CorrectionsApplied:   jr.CorrectionsApplied,
			Empirical:            jr.Empirical,
			Live:                 jr.Live,
			StagesRun:            jr.Ran,
			StagesSkipped:        jr.Skipped,
			DegradedStages:       jr.DegradedStages,
			PagesHash:            jr.PagesHash,
			ConfigHash:           jr.ConfigHash,
		}
	}
	return res, runErr
}

func closeAll(closers []func()) {
	for _, c := range closers {
		c()
	}
}

// chainStageHooks composes stage observers: both fire before the stage,
// their finish funcs run in reverse order after it. a may be nil.
func chainStageHooks(a, b func(string, PipelineStage) func()) func(string, PipelineStage) func() {
	if a == nil {
		return b
	}
	return func(vendor string, stage PipelineStage) func() {
		fa, fb := a(vendor, stage), b(vendor, stage)
		return func() {
			if fb != nil {
				fb()
			}
			if fa != nil {
				fa()
			}
		}
	}
}

// storeOrNil avoids handing the engine a typed-nil Store interface.
func storeOrNil(c *PipelineCache) pipeline.Store {
	if c == nil {
		return nil
	}
	return c
}
