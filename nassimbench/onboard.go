package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"nassim"
	"nassim/internal/cgm"
	"nassim/internal/configgen"
	"nassim/internal/devmodel"
	"nassim/internal/parser"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// recallFloor is the lowest mapper recall@10 an onboarding may show over
// the model's expert annotations (the unsupervised IR+NetBERT mapper on
// paper-scale Huawei). A drop below it is a quality regression, not noise.
const recallFloor = 0.85

// derive mixes a run seed, a salt and an index into a sub-seed
// (splitmix64), so every operation gets its own independent input.
func derive(seed, salt uint64, i int) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// onboardInput is one paper-scale Huawei onboarding: a freshly seeded
// manual and configuration corpus of the Table 4 sizes, plus the ground
// truth to check the result against.
type onboardInput struct {
	model   *devmodel.Model
	cfg     devmodel.Config
	pages   []parser.Page
	configs *configgen.Corpus
	anns    []nassim.Annotation
}

func newOnboardInput(seed uint64, op int) *onboardInput {
	cfg := devmodel.PaperConfig(devmodel.Huawei)
	cfg.Seed = derive(seed, 1, op)
	m := devmodel.Generate(cfg)
	cc, _ := configgen.PaperConfig(devmodel.Huawei)
	cc.Seed = derive(seed, 2, op)
	return &onboardInput{
		model: m, cfg: cfg, pages: nassim.SyntheticManual(m),
		configs: configgen.Generate(m, cc),
		anns:    nassim.GroundTruthAnnotations(m, nassim.AnnotationCount("Huawei"), cfg.Seed),
	}
}

// buildMapper is the onboarding's set-up: the UDM and the IR+NetBERT
// mapper over it.
func buildMapper() (*nassim.Mapper, error) {
	return nassim.NewMapper(nassim.BuildUDM(), nassim.ModelIRNetBERT)
}

// onboard runs paper-scale Huawei through pipeline.Engine.Run — parse,
// syntax_cgm, hierarchy, empirical over 197 files, map_to_udm of every
// parameter — once per operation, each time on new seeded inputs with a
// fresh artifact store.
//
// Between operations, untimed, the benchmark generates the next input,
// builds a fresh mapper and empties the process-wide compiled-template
// cache. The template cache and the mapper's embedding cache never evict:
// kept across operations they would turn later onboardings partly into
// lookups and grow memory with the number of operations, so both the
// latency and peak_rss_mb would depend on how fast the code ran.
func onboard(r *run, res *result) error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := buildMapper(); err != nil {
			return err
		}
		res.setup = append(res.setup, time.Since(t0))
	}
	workers := runtime.GOMAXPROCS(0)
	var stageMS = map[pipeline.Stage][]float64{}
	var unattributed, unattrShare, synth, synthShare, parseUtil, empUtil, recall []float64

	for op := 0; res.busy < r.dur; op++ {
		s0 := time.Now()
		in := newOnboardInput(r.seed, op)
		synthDur := time.Since(s0)
		mp, err := buildMapper()
		if err != nil {
			return err
		}
		cgm.ResetTemplateCache()
		runtime.GC()

		tr := r.opTracer(op)
		cfg := pipeline.Config{StageWorkers: workers}
		if tr != nil {
			cfg.StageHook = func(vendor string, stage pipeline.Stage) func() {
				return tr.begin(op, string(stage), "pipeline.run")
			}
		}
		eng, err := pipeline.New(cfg)
		if err != nil {
			return err
		}
		m := in.model
		job := pipeline.Job{
			Vendor: string(m.Vendor), Pages: in.pages, ConfigFiles: in.configs.Files,
			Correct: func(flagged []vdm.InvalidCLI) []pipeline.Correction {
				return nassim.ExpertCorrections(m, flagged)
			},
			Map: &pipeline.MapSpec{Mapper: mp.Mapper, TopK: 10},
		}
		var jrs []*pipeline.JobResult
		var runErr error
		var t0 time.Time
		var wall time.Duration
		res.measure(func() {
			t0 = time.Now()
			jrs, runErr = eng.Run(context.Background(), []pipeline.Job{job})
			wall = time.Since(t0)
		})
		res.busy += wall
		if tr != nil {
			tr.add(op, "pipeline.run", "", t0, t0.Add(wall))
			res.tracedLat = append(res.tracedLat, wall)
		} else {
			res.lat = append(res.lat, wall)
		}

		var jr *pipeline.JobResult
		if runErr == nil {
			jr = jrs[0]
		}
		rec, bad := checkOnboard(res, op, in, jr, runErr)
		res.check(bad)
		if bad {
			continue
		}
		res.rates = append(res.rates, float64(len(m.Commands))/wall.Seconds())
		recall = append(recall, rec)
		parseUtil = append(parseUtil, poolUtil(jr.Pools[pipeline.StageParse]))
		empUtil = append(empUtil, poolUtil(jr.Pools[pipeline.StageEmpiricalValidate]))
		if tr == nil {
			continue
		}
		var staged time.Duration
		for _, st := range pipeline.Stages() {
			if d, ok := tr.byName(string(st))[op]; ok {
				staged += d
				stageMS[st] = append(stageMS[st], ms(d))
			}
		}
		tr.add(op, "synth", "", s0, s0.Add(synthDur))
		out := wall - staged
		unattributed = append(unattributed, ms(out))
		unattrShare = append(unattrShare, out.Seconds()/wall.Seconds())
		synth = append(synth, ms(synthDur))
		synthShare = append(synthShare, synthDur.Seconds()/(synthDur+wall).Seconds())
		res.notes = append(res.notes, fmt.Sprintf(
			"op %d: run %.0f ms, stages %.0f ms, unattributed %.1f%%; with input synthesis (%.0f ms, as nassim.Assimilate does) %.1f%% is outside any stage",
			op, ms(wall), ms(staged), 100*out.Seconds()/wall.Seconds(), ms(synthDur),
			100*(synthDur+out).Seconds()/(synthDur+wall).Seconds()))
	}

	L := res.layers
	L["parser.parse_ms"] = median(stageMS[pipeline.StageParse])
	L["hierarchy.syntax_ms"] = median(stageMS[pipeline.StageSyntaxValidate])
	L["hierarchy.derive_ms"] = median(stageMS[pipeline.StageDeriveHierarchy])
	L["empirical.validate_ms"] = median(stageMS[pipeline.StageEmpiricalValidate])
	L["mapper.map_ms"] = median(stageMS[pipeline.StageMapToUDM])
	L["pipeline.unattributed_ms"] = median(unattributed)
	L["pipeline.unattributed_share"] = median(unattrShare)
	L["pipeline.synth_ms"] = median(synth)
	L["pipeline.synth_share"] = median(synthShare)
	L["parser.pool_util"] = median(parseUtil)
	L["empirical.pool_util"] = median(empUtil)
	L["mapper.recall_at_10"] = median(recall)
	res.notes = append(res.notes, fmt.Sprintf("pool utilization is busy time over wall x min(workers, GOMAXPROCS=%d)", workers))
	return nil
}

// checkOnboard compares one onboarding with the model its inputs were
// generated from and returns the mapper's recall@10.
func checkOnboard(res *result, op int, in *onboardInput, jr *pipeline.JobResult, err error) (float64, bool) {
	bad := false
	fail := func(format string, args ...any) {
		res.fail("onboard op %d: "+format, append([]any{op}, args...)...)
		bad = true
	}
	if err != nil {
		fail("%v", err)
		return 0, true
	}
	m := in.model
	if got, want := len(jr.Corpora), len(m.Commands); got != want || want != in.cfg.TargetCommands {
		fail("%d corpora, model has %d commands (target %d)", got, want, in.cfg.TargetCommands)
	}
	corrupt := map[string]bool{}
	for _, id := range m.SyntaxErrorIDs {
		corrupt[id] = true
	}
	if len(jr.Invalid) != len(corrupt) || jr.CorrectionsApplied != len(corrupt) || len(corrupt) != in.cfg.SyntaxErrors {
		fail("%d flagged and %d corrected, manual corrupts %d (target %d)",
			len(jr.Invalid), jr.CorrectionsApplied, len(corrupt), in.cfg.SyntaxErrors)
	}
	for _, ic := range jr.Invalid {
		if ic.Corpus < 0 || ic.Corpus >= len(m.Commands) || !corrupt[m.Commands[ic.Corpus].ID] {
			fail("flagged corpus %d is not a corrupted command", ic.Corpus)
			continue
		}
		if got := jr.VDM.Corpora[ic.Corpus].CLIs[0]; got != m.Commands[ic.Corpus].Template {
			fail("corrected CLI %q, model template %q", got, m.Commands[ic.Corpus].Template)
		}
	}
	if amb, unres := len(jr.Derive.AmbiguousViews), len(jr.Derive.UnresolvedViews); amb != len(m.AmbiguousViewNames) || amb != in.cfg.AmbiguousViews || unres != 0 {
		fail("%d ambiguous and %d unresolved views, model has %d ambiguous", amb, unres, len(m.AmbiguousViewNames))
	}
	e := jr.Empirical
	if e == nil {
		fail("no empirical report")
		return 0, true
	}
	if e.Files != len(in.configs.Files) || e.MatchedLines != e.TotalLines || e.TotalLines != in.configs.TotalLines() {
		fail("%d files, %d of %d lines matched; corpus has %d files, %d lines",
			e.Files, e.MatchedLines, e.TotalLines, len(in.configs.Files), in.configs.TotalLines())
	}
	used := map[int]bool{}
	index := map[string]int{}
	for i, c := range m.Commands {
		index[c.ID] = i
	}
	for _, id := range in.configs.UsedCommandIDs {
		used[index[id]] = true
	}
	if len(e.UsedCorpora) != len(used) {
		fail("%d templates used, corpus instantiates %d", len(e.UsedCorpora), len(used))
	}
	for c := range e.UsedCorpora {
		if !used[c] {
			fail("corpus %d matched but never instantiated", c)
			break
		}
	}
	if len(jr.DegradedStages) > 0 {
		fail("degraded stages %v", jr.DegradedStages)
	}
	if got, want := len(jr.Mapping), len(jr.VDM.Parameters()); got != want {
		fail("%d parameters mapped, VDM has %d", got, want)
	}
	rec := recallAt10(jr.Mapping, in.anns)
	if rec < recallFloor {
		fail("recall@10 %.4f below floor %.2f", rec, recallFloor)
	}
	return rec, bad
}

// recallAt10 is the share of annotated parameters whose true UDM
// attribute is among their top-10 recommendations.
func recallAt10(mapping []pipeline.Mapping, anns []nassim.Annotation) float64 {
	type pk struct {
		corpus int
		name   string
	}
	byParam := make(map[pk]int, len(mapping))
	for i, mp := range mapping {
		byParam[pk{mp.Param.Corpus, mp.Param.Name}] = i
	}
	hits := 0
	for _, a := range anns {
		i, ok := byParam[pk{a.Param.Corpus, a.Param.Name}]
		if !ok {
			continue
		}
		for k, rec := range mapping[i].Recommendations {
			if k < 10 && rec.Attr.ID == a.AttrID {
				hits++
				break
			}
		}
	}
	if len(anns) == 0 {
		return 0
	}
	return float64(hits) / float64(len(anns))
}

// poolUtil is a pool's busy time over its wall time times the cores it
// could actually use.
func poolUtil(ps telemetry.PoolStats) float64 {
	cores := ps.Workers
	if p := runtime.GOMAXPROCS(0); p < cores {
		cores = p
	}
	if cores < 1 || ps.WallNS <= 0 {
		return 0
	}
	return ps.Busy().Seconds() / (time.Duration(ps.WallNS).Seconds() * float64(cores))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
