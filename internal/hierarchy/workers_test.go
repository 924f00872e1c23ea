package hierarchy

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"nassim/internal/artifact"
	"nassim/internal/devmodel"
	"nassim/internal/manualgen"
	"nassim/internal/parser"
	"nassim/internal/vdm"
)

// encodeDerived renders what DeriveHierarchy stores — the VDM and the
// report minus its timings — in the artifact container the pipeline's
// derive codec uses.
func encodeDerived(v *vdm.VDM, rep *Report) []byte {
	w := artifact.NewWriter("derive/test")
	v.AppendBinary(w.Section("vdm"))
	re := w.Section("report")
	re.String(rep.RootView)
	re.Int(int64(rep.InvalidCLIs))
	re.Int(int64(rep.StrongVotes))
	re.Int(int64(rep.WeakVotes))
	for _, list := range [][]string{rep.AmbiguousViews, rep.UnresolvedViews} {
		re.Len(len(list), list == nil)
		for _, s := range list {
			re.String(s)
		}
	}
	return w.Bytes()
}

// TestDeriveIndependentOfWorkers derives paper-scale Huawei — about 12.8k
// corpora whose hierarchy comes from examples — at 1, 2 and 8 workers.
// GOMAXPROCS is raised to 8 for the test so the 8-worker run really fans
// out that wide. Views (enter corpus, parent, ambiguity, relevant-snippet
// order), vote counts, unresolved views and the encoded artifact must be
// identical.
func TestDeriveIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Huawei in -short mode")
	}
	m := devmodel.Generate(devmodel.PaperConfig(devmodel.Huawei))
	man := manualgen.Render(m)
	p, err := parser.New(string(m.Vendor))
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]parser.Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = parser.Page{URL: pg.URL, HTML: pg.HTML}
	}
	res := p.Parse(context.Background(), pages)
	if len(res.Hierarchy) != 0 {
		t.Fatalf("Huawei published %d explicit edges; the test needs example-derived hierarchy", len(res.Hierarchy))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	ref, refRep := Derive(context.Background(), "Huawei", res.Corpora, nil, nil, 1)
	if refRep.Pool.Workers != 1 {
		t.Fatalf("1 worker: pool ran %d workers", refRep.Pool.Workers)
	}
	if refRep.StrongVotes == 0 || len(ref.AmbiguousViews()) == 0 {
		t.Fatalf("reference derivation has %d strong votes and %d ambiguous views; want both non-zero",
			refRep.StrongVotes, len(ref.AmbiguousViews()))
	}
	refBytes := encodeDerived(ref, refRep)
	for _, workers := range []int{2, 8} {
		v, rep := Derive(context.Background(), "Huawei", res.Corpora, nil, nil, workers)
		if rep.Pool.Workers != workers {
			t.Errorf("%d workers: pool ran %d", workers, rep.Pool.Workers)
		}
		if v.RootView != ref.RootView {
			t.Errorf("%d workers: root %q, want %q", workers, v.RootView, ref.RootView)
		}
		if len(v.Views) != len(ref.Views) {
			t.Fatalf("%d workers: %d views, want %d", workers, len(v.Views), len(ref.Views))
		}
		for name, want := range ref.Views {
			if got := v.Views[name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%d workers: view %q = %+v, want %+v", workers, name, got, want)
			}
		}
		if rep.StrongVotes != refRep.StrongVotes || rep.WeakVotes != refRep.WeakVotes {
			t.Errorf("%d workers: votes strong=%d weak=%d, want %d/%d", workers,
				rep.StrongVotes, rep.WeakVotes, refRep.StrongVotes, refRep.WeakVotes)
		}
		if !reflect.DeepEqual(rep.UnresolvedViews, refRep.UnresolvedViews) ||
			!reflect.DeepEqual(rep.AmbiguousViews, refRep.AmbiguousViews) {
			t.Errorf("%d workers: unresolved %v ambiguous %v, want %v / %v", workers,
				rep.UnresolvedViews, rep.AmbiguousViews, refRep.UnresolvedViews, refRep.AmbiguousViews)
		}
		if got := encodeDerived(v, rep); !bytes.Equal(got, refBytes) {
			t.Errorf("%d workers: encoded hierarchy artifact differs (%d vs %d bytes)", workers, len(got), len(refBytes))
		}
	}
}
