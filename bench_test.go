package nassim_test

// One benchmark per evaluation artifact of the paper (see DESIGN.md's
// per-experiment index):
//
//	BenchmarkParseManual/*          E1/E9: manual parsing per vendor
//	BenchmarkSyntaxValidation       E4/§5.1: formal syntax validation (Table 4 invalid row)
//	BenchmarkCGMConstruction/*      E4: CGM generation — the dominant cost in Table 4's construction time
//	BenchmarkInstanceMatching       E5/Figure 6: Algorithm 1 instance-template matching
//	BenchmarkHierarchyDerivation/*  E4: §5.2 derivation (Table 4 construction time)
//	BenchmarkEmpiricalValidation    E6/Figure 8: config-file validation (Table 4 matching ratio)
//	BenchmarkDeviceExec             E6/§5.3: live-device instance testing loop
//	BenchmarkMapperRecommend/*      E7: one Table 5 cell (per-parameter recommendation)
//	BenchmarkFineTune               E7: §6.3 NetBERT domain adaptation
//	BenchmarkEndToEndAssimilation   E8: the full pipeline the 9.1x headline measures

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nassim"
	"nassim/internal/benchdiff"
	"nassim/internal/cgm"
	"nassim/internal/clisyntax"
	"nassim/internal/devmodel"
	"nassim/internal/hierarchy"
	"nassim/internal/mapper"
	"nassim/internal/nlp"
	"nassim/internal/telemetry"
)

const benchScale = 0.05

type benchData struct {
	model *nassim.DeviceModel
	pages []nassim.Page
	asr   *nassim.AssimilationResult
	files []nassim.ConfigFile
	anns  []nassim.Annotation
}

var (
	benchOnce  sync.Once
	benchState map[string]*benchData
	benchUDM   *nassim.UDM
)

func setup(b *testing.B) map[string]*benchData {
	b.Helper()
	benchOnce.Do(func() {
		benchState = map[string]*benchData{}
		benchUDM = nassim.BuildUDM()
		for _, vendor := range nassim.Vendors() {
			m, err := nassim.SyntheticModel(vendor, benchScale)
			if err != nil {
				panic(err)
			}
			asr, err := nassim.AssimilateModel(context.Background(), m)
			if err != nil {
				panic(err)
			}
			d := &benchData{
				model: m,
				pages: nassim.SyntheticManual(m),
				asr:   asr,
				anns:  nassim.GroundTruthAnnotations(m, 100, 9),
			}
			if files, ok := nassim.SyntheticConfigs(m, benchScale); ok {
				d.files = files
			}
			benchState[vendor] = d
		}
	})
	return benchState
}

func BenchmarkParseManual(b *testing.B) {
	data := setup(b)
	for _, vendor := range nassim.Vendors() {
		vendor := vendor
		b.Run(vendor, func(b *testing.B) {
			pages := data[vendor].pages
			b.ReportMetric(float64(len(pages)), "pages/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nassim.ParseManual(context.Background(), vendor, pages); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSyntaxValidation(b *testing.B) {
	data := setup(b)
	corpora := data["Huawei"].asr.Parsed.Corpora
	b.ReportMetric(float64(len(corpora)), "templates/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range corpora {
			_ = clisyntax.Validate(corpora[j].PrimaryCLI())
		}
	}
}

func BenchmarkCGMConstruction(b *testing.B) {
	data := setup(b)
	for _, vendor := range []string{"Huawei", "Nokia"} {
		vendor := vendor
		b.Run(vendor, func(b *testing.B) {
			corpora := data[vendor].asr.Parsed.Corpora
			b.ReportMetric(float64(len(corpora)), "templates/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix := cgm.NewIndex()
				for j := range corpora {
					_ = ix.Add(nassim.CorpusID(j), corpora[j].PrimaryCLI(), nil)
				}
			}
		})
	}
}

func BenchmarkInstanceMatching(b *testing.B) {
	// The Figure 6 toy example: match instances against the filter-policy
	// template's CGM.
	g, err := cgm.FromTemplate(
		"filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }", nil)
	if err != nil {
		b.Fatal(err)
	}
	instances := []string{
		"filter-policy acl-name acl1 export",
		"filter-policy 2000 import",
		"filter-policy ip-prefix pfx1 import",
		"filter-policy acl-name acl1 both", // reject path
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range instances {
			g.Match(inst)
		}
	}
}

func BenchmarkHierarchyDerivation(b *testing.B) {
	data := setup(b)
	for _, vendor := range []string{"Huawei", "Nokia"} {
		vendor := vendor
		b.Run(vendor, func(b *testing.B) {
			parsed := data[vendor].asr.Parsed
			edges := make([]hierarchy.Edge, len(parsed.Hierarchy))
			for i, e := range parsed.Hierarchy {
				edges[i] = hierarchy.Edge{Parent: e.Parent, Child: e.Child}
			}
			// The fanned-out derivation must equal the one-worker one.
			ref, _ := hierarchy.Derive(context.Background(), vendor, parsed.Corpora, edges, nil, 1)
			workers := runtime.GOMAXPROCS(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := hierarchy.Derive(context.Background(), vendor, parsed.Corpora, edges, nil, workers)
				if len(v.Views) == 0 {
					b.Fatal("no views derived")
				}
				if i == 0 && (v.RootView != ref.RootView || !reflect.DeepEqual(v.Views, ref.Views)) {
					b.Fatalf("%d-worker derivation differs from the one-worker one", workers)
				}
			}
		})
	}
}

func BenchmarkEmpiricalValidation(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	lines := 0
	for _, f := range d.files {
		lines += len(f.Lines)
	}
	b.ReportMetric(float64(lines), "lines/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := nassim.ValidateConfigs(context.Background(), d.asr.VDM, d.files)
		if rep.MatchingRatio() != 1.0 {
			b.Fatalf("ratio = %f", rep.MatchingRatio())
		}
	}
}

func BenchmarkDeviceExec(b *testing.B) {
	data := setup(b)
	d := data["H3C"]
	dev, err := nassim.NewDevice(d.model)
	if err != nil {
		b.Fatal(err)
	}
	sess := dev.NewSession()
	inst := d.model.InstantiateMinimal(d.model.Commands[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Exec("return")
		if resp := sess.Exec(inst); !resp.OK {
			b.Fatal(resp.Msg)
		}
	}
}

func BenchmarkMapperRecommend(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	for _, kind := range []nassim.ModelKind{nassim.ModelIR, nassim.ModelSBERT, nassim.ModelIRSBERT} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			m, err := nassim.NewMapper(benchUDM, kind)
			if err != nil {
				b.Fatal(err)
			}
			ctx := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs := m.Recommend(ctx, 10); len(recs) == 0 {
					b.Fatal("no recommendations")
				}
			}
		})
	}
}

func BenchmarkFineTune(b *testing.B) {
	data := setup(b)
	d := data["Nokia"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := nassim.NewMapper(benchUDM, nassim.ModelNetBERT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.FineTune(d.asr.VDM, benchUDM, d.anns, 10, 1, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndAssimilation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		asr, err := nassim.AssimilateVendor(context.Background(), "H3C", 0.02)
		if err != nil {
			b.Fatal(err)
		}
		if len(asr.VDM.InvalidCLIs) != 0 {
			b.Fatal("corrections not applied")
		}
	}
}

func BenchmarkPipelineStages(b *testing.B) {
	// End-to-end assimilation with per-stage wall time, reported under the
	// stage names the stage tables and BENCH_*.json stage.* records use.
	data := setup(b)
	d := data["Huawei"]
	wall := map[string]time.Duration{}
	timed := func(stage string, f func()) {
		start := time.Now()
		f()
		wall[stage] += time.Since(start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var parsed *nassim.ParseResult
		var err error
		timed(telemetry.StageParse, func() {
			parsed, err = nassim.ParseManual(context.Background(), "Huawei", d.pages)
		})
		if err != nil {
			b.Fatal(err)
		}
		first, firstRep := nassim.BuildVDM(context.Background(), "Huawei", parsed.Corpora, parsed.Hierarchy)
		wall[telemetry.StageSyntaxCGM] += firstRep.CGMBuildTime
		wall[telemetry.StageHierarchy] += firstRep.DeriveTime
		var v *nassim.VDM
		timed(telemetry.StageCorrect, func() {
			nassim.ApplyCorrections(parsed.Corpora, nassim.ExpertCorrections(d.model, first.InvalidCLIs))
			v, _ = nassim.BuildVDM(context.Background(), "Huawei", parsed.Corpora, parsed.Hierarchy)
		})
		timed(telemetry.StageEmpirical, func() {
			nassim.ValidateConfigs(context.Background(), v, d.files)
		})
	}
	b.StopTimer()
	for stage, total := range wall {
		b.ReportMetric(float64(total.Nanoseconds()/int64(b.N)), stage+"-ns/op")
	}
}

// mapperBench exports the mapper hot-path benchmarks as BENCH_mapper.json
// when NASSIM_BENCH_DIR is set (make bench-mapper), rewriting the
// document after every benchmark so the perf trajectory of the
// vectorized scorer is tracked like the other BENCH_*.json documents.
var mapperBench = benchdiff.NewWriter("mapper")

// exportBench records one Go benchmark's ns/op, plus any figures derived
// alongside it, into w's document; a nil w (export off) drops them.
func exportBench(b *testing.B, w *benchdiff.Writer, name string, extra ...benchdiff.Record) {
	b.Helper()
	recs := append([]benchdiff.Record{benchdiff.NsPerOp(name, b.Elapsed(), b.N)}, extra...)
	if err := w.Put(recs...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecommend measures the vectorized Equation 2 hot path: one
// top-10 recommendation through the precombined UDM matrices (pure DL
// scores the full tree; IR+DL shortlists through the inverted index and
// re-ranks with KV dots per candidate).
func BenchmarkRecommend(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	for _, kind := range []nassim.ModelKind{nassim.ModelIR, nassim.ModelSBERT, nassim.ModelIRSBERT} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			m, err := nassim.NewMapper(benchUDM, kind)
			if err != nil {
				b.Fatal(err)
			}
			ctx := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs := m.Recommend(ctx, 10); len(recs) == 0 {
					b.Fatal("no recommendations")
				}
			}
			exportBench(b, mapperBench, "Recommend/"+string(kind))
		})
	}
	// Float-reference rows: the same DL paths with the int8-quantized
	// candidate prune disabled — the before/after pair for the quantized
	// scorer lives in one BENCH_mapper.json.
	for _, kind := range []nassim.ModelKind{nassim.ModelSBERT, nassim.ModelIRSBERT} {
		kind := kind
		b.Run(string(kind)+"-float", func(b *testing.B) {
			m, err := nassim.NewMapper(benchUDM, kind, nassim.WithFloatScoring())
			if err != nil {
				b.Fatal(err)
			}
			ctx := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs := m.Recommend(ctx, 10); len(recs) == 0 {
					b.Fatal("no recommendations")
				}
			}
			exportBench(b, mapperBench, "Recommend/"+string(kind)+"-float")
		})
	}
}

// BenchmarkMapAll measures the parallel batch path: 100 parameter
// contexts fanned across the bounded worker pool with order-stable
// output — the shape the pipeline's map_to_udm stage runs.
func BenchmarkMapAll(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	m, err := nassim.NewMapper(benchUDM, nassim.ModelIRSBERT)
	if err != nil {
		b.Fatal(err)
	}
	pcs := make([]nassim.ParamContext, 0, 100)
	for i := 0; len(pcs) < 100; i++ {
		pcs = append(pcs, nassim.ExtractContext(d.asr.VDM, d.anns[i%len(d.anns)].Param))
	}
	b.ReportMetric(float64(len(pcs)), "params/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.MapAll(context.Background(), pcs, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(pcs) {
			b.Fatal("short batch")
		}
	}
	exportBench(b, mapperBench, "MapAll")
}

// BenchmarkTFIDFRank measures the IR fast path in isolation: one top-50
// shortlist query against the UDM corpus through the inverted index and
// accumulator scorer.
func BenchmarkTFIDFRank(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	docs := make([][]string, benchUDM.Len())
	for i := range docs {
		docs[i] = nlp.Tokenize(strings.Join(benchUDM.Context(i), " "))
	}
	idx := nlp.NewTFIDF(docs)
	pc := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
	query := nlp.Tokenize(strings.Join(pc.Sequences, " "))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ranked := idx.Rank(query, 50); len(ranked) == 0 {
			b.Fatal("empty ranking")
		}
	}
	exportBench(b, mapperBench, "TFIDFRank")
}

func BenchmarkWeightGridSearch(b *testing.B) {
	// A1 ablation cost: 243 weight combinations over precomputed cosines.
	data := setup(b)
	d := data["Nokia"]
	enc := nlp.NewSBERT(nassim.EncoderDim, devmodel.GeneralSynonyms())
	we := mapper.BuildWeightEvals(benchUDM, enc, d.asr.VDM, d.anns, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.GridSearchWeights(we, []float64{0.25, 1, 4}, 1, []int{1, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYANGBridge(b *testing.B) {
	// E10 cost: parse + bridge the vendor's YANG module set.
	data := setup(b)
	sources := nassim.SyntheticYANG(data["Huawei"].model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var modules []*nassim.YANGModule
		for _, src := range sources {
			m, err := nassim.ParseYANG(src.Text)
			if err != nil {
				b.Fatal(err)
			}
			modules = append(modules, m)
		}
		if res := nassim.BridgeYANG("Huawei", modules); len(res.Corpora) == 0 {
			b.Fatal("empty bridge")
		}
	}
}

func BenchmarkNetconfEditConfig(b *testing.B) {
	// §8.1: one schema-validated edit-config round trip over TCP.
	data := setup(b)
	var modules []*nassim.YANGModule
	for _, src := range nassim.SyntheticYANG(data["Huawei"].model) {
		m, err := nassim.ParseYANG(src.Text)
		if err != nil {
			b.Fatal(err)
		}
		modules = append(modules, m)
	}
	store := nassim.NewNetconfStore(modules)
	srv, err := nassim.ServeNetconf(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := nassim.DialNetconf(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var ns string
	var leaf nassim.YANGLeaf
	for _, m := range modules {
		ls := m.Leaves()
		if len(ls) > 0 {
			ns, leaf = m.Namespace, ls[0]
			break
		}
	}
	value := "test1"
	if leaf.Type == "uint32" {
		value = "3"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.EditConfig(ns, leaf.Path, leaf.Name, value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntentPush(b *testing.B) {
	// E12: one UDM intent translated, navigated, pushed and verified.
	data := setup(b)
	d := data["Huawei"]
	binding := nassim.BindingFromAnnotations(d.anns)
	dev, err := nassim.NewDevice(d.model)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := nassim.NewController(3)
	if err := nassim.RegisterDevice(ctrl, "bench-dev", "Huawei", d.asr.VDM, binding,
		nassim.SessionExecutor(dev.NewSession()), dev.ShowConfigCommand()); err != nil {
		b.Fatal(err)
	}
	var intent nassim.Intent
	for id := range binding {
		if strings.HasSuffix(id, "-time") || strings.HasSuffix(id, "-limit") {
			intent = nassim.Intent{AttrID: id, Value: "7"}
			break
		}
	}
	if intent.AttrID == "" {
		b.Skip("no int-typed bound attribute")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Apply("bench-dev", intent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssimilateParallel measures the engine over the four built-in
// vendors with a 4-worker pool. With NASSIM_BENCH_DIR set it exports
// BENCH_pipeline.json: the last run's wall time plus per-stage wall time
// from its Stats, comparable over time like BENCH_telemetry.json.
func BenchmarkAssimilateParallel(b *testing.B) {
	const workers = 4
	var stats nassim.PipelineStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nassim.Assimilate(context.Background(), nassim.Options{
			Scale: benchScale, Workers: workers, Validate: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.Runs()), "stages/op")
	recs := []benchdiff.Record{
		benchdiff.SingleShot("wall_ns", "ns", float64(stats.Wall.Nanoseconds()), benchdiff.SingleShotFloorNS),
		benchdiff.Informational("jobs", "count", float64(stats.Jobs)),
	}
	for _, st := range stats.StageTimes() {
		recs = append(recs, benchdiff.StageRecords(st.Name, st.Calls, st.Total)...)
	}
	if err := benchdiff.NewWriter("pipeline").Put(recs...); err != nil {
		b.Fatal(err)
	}
}
