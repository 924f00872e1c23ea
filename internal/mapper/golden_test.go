package mapper_test

// Golden test for the vectorized mapper hot path: on every built-in
// vendor's assimilated corpus, the precombined-matrix scorer must produce
// exactly the same top-k recommendation lists as the scalar Equation 2
// reference (per-pair cosines). Identical lists imply identical
// recall@top-k and MRR, so the §7.3 evaluation is unchanged by the
// optimization.

import (
	"context"
	"math/rand/v2"
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/manualgen"
	"nassim/internal/mapper"
	"nassim/internal/nlp"
	"nassim/internal/parser"
	"nassim/internal/pipeline"
	"nassim/internal/udm"
	"nassim/internal/vdm"
)

// encoderDim is the embedding width the product's mappers use.
const encoderDim = 96

// assimilate runs a vendor model's manual through the pipeline, with the
// syntax-flagged templates corrected from ground truth, and returns the
// validated VDM.
func assimilate(t *testing.T, m *devmodel.Model) *vdm.VDM {
	t.Helper()
	man := manualgen.Render(m)
	pages := make([]parser.Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = parser.Page{URL: pg.URL, HTML: pg.HTML}
	}
	eng, err := pipeline.New(pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	jrs, err := eng.Run(context.Background(), []pipeline.Job{{
		Vendor: string(m.Vendor), Pages: pages,
		Correct: func(flagged []vdm.InvalidCLI) []pipeline.Correction {
			var out []pipeline.Correction
			for _, ic := range flagged {
				if ic.Corpus >= 0 && ic.Corpus < len(m.Commands) {
					out = append(out, pipeline.Correction{Corpus: ic.Corpus, CLI: m.Commands[ic.Corpus].Template})
				}
			}
			return out
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return jrs[0].VDM
}

// annotatedParams returns up to limit ground-truth-annotated parameters
// in a seeded shuffle.
func annotatedParams(m *devmodel.Model, limit int, seed uint64) []vdm.Parameter {
	cmdIndex := map[string]int{}
	for i, c := range m.Commands {
		cmdIndex[c.ID] = i
	}
	var all []vdm.Parameter
	for _, con := range m.Concepts {
		ref, ok := m.Realizes[con.ID]
		if !ok {
			continue
		}
		if idx, ok := cmdIndex[ref.CommandID]; ok {
			all = append(all, vdm.Parameter{Corpus: idx, Name: ref.Param})
		}
	}
	r := rand.New(rand.NewPCG(seed, 0xa77))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if limit < len(all) {
		all = all[:limit]
	}
	return all
}

func TestVectorizedRecommendMatchesNaiveFourVendors(t *testing.T) {
	if testing.Short() {
		t.Skip("four-vendor corpus in -short mode")
	}
	tree := udm.Build(devmodel.Concepts())
	syn := devmodel.GeneralSynonyms()
	for _, vendor := range devmodel.AllVendors {
		model := devmodel.Generate(devmodel.PaperConfig(vendor).Scaled(0.05))
		v := assimilate(t, model)
		params := annotatedParams(model, 40, 9)
		for _, useIR := range []bool{false, true} {
			m, err := mapper.New(tree, nlp.NewSBERT(encoderDim, syn), useIR)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range params {
				pc := mapper.ExtractContext(v, p)
				fast := m.Recommend(pc, 10)
				naive := m.RecommendNaive(pc, 10)
				if len(fast) != len(naive) {
					t.Fatalf("%s/%s %s: %d recs vs %d", vendor, m.Name(), p.Name,
						len(fast), len(naive))
				}
				for i := range naive {
					if fast[i].AttrIndex != naive[i].AttrIndex {
						t.Fatalf("%s/%s %s pos %d: fast=%s(%.12f) naive=%s(%.12f)",
							vendor, m.Name(), p.Name, i,
							fast[i].Attr.ID, fast[i].Score,
							naive[i].Attr.ID, naive[i].Score)
					}
					if d := fast[i].Score - naive[i].Score; d > 1e-9 || d < -1e-9 {
						t.Fatalf("%s/%s %s pos %d: score drift %v", vendor, m.Name(), p.Name, i, d)
					}
				}
			}
		}
	}
}
