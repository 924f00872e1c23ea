package cgm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"nassim/internal/devmodel"
)

// specificityRef is the map-frontier reference for Graph.Specificity: the
// best keyword count per candidate state lives in a map rebuilt for every
// token. The dense-array implementation must agree with it on every input.
func specificityRef(g *Graph, toks []string) int {
	if len(toks) == 0 {
		return -1
	}
	frontier := map[int]int{} // candidate state -> best keyword count so far
	for _, s := range g.succ[g.root] {
		frontier[s] = 0
	}
	for _, tok := range toks {
		next := map[int]int{}
		for state, kws := range frontier {
			n := g.nodes[state]
			score := -1
			switch {
			case n.kind == KindKeyword && n.text == tok:
				score = kws + 1
			case n.kind == KindParam && devmodel.TypeMatches(n.typ, tok):
				score = kws
			}
			if score < 0 {
				continue
			}
			for _, s := range g.succ[state] {
				if prev, ok := next[s]; !ok || score > prev {
					next[s] = score
				}
			}
		}
		if len(next) == 0 {
			return -1
		}
		frontier = next
	}
	best, ok := frontier[g.terminal]
	if !ok {
		return -1
	}
	return best
}

// matchTokensRef is the list-based reference for Graph.MatchTokens,
// written as Algorithm 4 states it: match_next keeps the keyword
// candidates equal to the token, or failing those the parameter candidates
// whose type fits it, and get_next_candis unions the matched states'
// successors. It also returns the number of candidate states examined,
// which MatchTokens adds to the match-steps counter.
func matchTokensRef(g *Graph, toks []string) (bool, int) {
	if len(toks) == 0 {
		return false, 0
	}
	steps := 0
	candis := g.succ[g.root]
	for _, tok := range toks {
		steps += len(candis)
		var matched []int
		for _, c := range candis {
			if n := g.nodes[c]; n.kind == KindKeyword && n.text == tok {
				matched = append(matched, c)
			}
		}
		if len(matched) == 0 {
			for _, c := range candis {
				if n := g.nodes[c]; n.kind == KindParam && devmodel.TypeMatches(n.typ, tok) {
					matched = append(matched, c)
				}
			}
		}
		if len(matched) == 0 {
			return false, steps
		}
		var next []int
		for _, m := range matched {
			next = unionInts(next, g.succ[m])
		}
		candis = next
	}
	for _, c := range candis {
		if c == g.terminal {
			return true, steps
		}
	}
	return false, steps
}

// specFixture is paper-scale Huawei compiled into CGMs: every template's
// graph, the graphs bucketed by leading keyword (the candidates
// Index.MatchBest scores for one line), and the example lines hierarchy
// derivation feeds them.
type specFixture struct {
	graphs  []*Graph
	byFirst map[string][]*Graph
	lines   []string
}

var specFix = sync.OnceValue(func() *specFixture {
	m := devmodel.Generate(devmodel.PaperConfig(devmodel.Huawei))
	fx := &specFixture{byFirst: map[string][]*Graph{}}
	for _, c := range m.Commands {
		g, err := FromTemplate(c.Template, nil)
		if err != nil {
			continue
		}
		fx.graphs = append(fx.graphs, g)
		for _, s := range g.succ[g.root] {
			if g.nodes[s].kind == KindKeyword {
				fx.byFirst[g.nodes[s].text] = append(fx.byFirst[g.nodes[s].text], g)
			}
		}
		for _, ex := range c.Examples {
			for _, line := range ex {
				fx.lines = append(fx.lines, strings.TrimSpace(line))
			}
		}
	}
	return fx
})

// mutations derives near-miss token sequences from an instance: a
// truncation, a duplicated token, two swapped tokens, and a token
// replaced by a keyword taken from another line.
func mutations(toks []string, r *rand.Rand, vocab []string) [][]string {
	out := [][]string{toks}
	if len(toks) == 0 {
		return out
	}
	out = append(out, toks[:len(toks)-1])
	i, j := r.IntN(len(toks)), r.IntN(len(toks))
	dup := append(append(append([]string(nil), toks[:i+1]...), toks[i]), toks[i+1:]...)
	swap := append([]string(nil), toks...)
	swap[i], swap[j] = swap[j], swap[i]
	repl := append([]string(nil), toks...)
	repl[j] = vocab[r.IntN(len(vocab))]
	return append(out, dup, swap, repl)
}

// checkSpecificity compares the dense MatchTokens and Specificity with
// their references on one token sequence — match result, steps counted,
// score — against every graph Index.MatchBest would score for it (same
// leading keyword, token count within the graph's bounds) plus one graph
// picked by the caller.
func checkSpecificity(t *testing.T, fx *specFixture, toks []string, extra *Graph) int {
	t.Helper()
	cands := []*Graph{extra}
	if len(toks) > 0 {
		for _, g := range fx.byFirst[toks[0]] {
			if lo, hi := g.TokenBounds(); len(toks) >= lo && len(toks) <= hi {
				cands = append(cands, g)
			}
		}
	}
	for _, g := range cands {
		if got, want := g.Specificity(toks), specificityRef(g, toks); got != want {
			t.Fatalf("Specificity(%q) = %d, reference %d, graph:\n%s", toks, got, want, g)
		}
		before := telMatchSteps.Value()
		got := g.MatchTokens(toks)
		steps := telMatchSteps.Value() - before
		if want, wantSteps := matchTokensRef(g, toks); got != want || steps != int64(wantSteps) {
			t.Fatalf("MatchTokens(%q) = %v after %d steps, reference %v after %d, graph:\n%s",
				toks, got, steps, want, wantSteps, g)
		}
	}
	return len(cands)
}

// TestSpecificityMatchesReference samples paper-scale Huawei: every 16th
// example line and four mutations of it, against every template
// MatchBest would score for it.
func TestSpecificityMatchesReference(t *testing.T) {
	fx := specFix()
	r := rand.New(rand.NewPCG(1, 2))
	vocab := make([]string, 0, len(fx.byFirst))
	for kw := range fx.byFirst {
		vocab = append(vocab, kw)
	}
	sort.Strings(vocab)
	checked := 0
	for i := 0; i < len(fx.lines); i += 16 {
		for _, toks := range mutations(strings.Fields(fx.lines[i]), r, vocab) {
			checked += checkSpecificity(t, fx, toks, fx.graphs[i%len(fx.graphs)])
		}
	}
	t.Logf("%d graphs, %d lines sampled, %d comparisons", len(fx.graphs), (len(fx.lines)+15)/16, checked)
}

// TestSpecificityLargeGraph covers graphs too big for the stack-backed
// frontiers; paper-scale templates stay far below the limit.
func TestSpecificityLargeGraph(t *testing.T) {
	var alts []string
	for i := 0; i < stackStates; i++ {
		alts = append(alts, fmt.Sprintf("k%d", i))
	}
	g := mustGraph(t, "big { "+strings.Join(alts, " | ")+" } [ <name> ] { k1 | <count> }")
	if g.NodeCount() <= stackStates {
		t.Fatalf("graph has %d states, want more than %d", g.NodeCount(), stackStates)
	}
	for _, line := range []string{"big k3 k1", "big k3 x k1", "big k7 x 12", "big k7 12", "big k1", "big x k1", "big k3 k1 k1", ""} {
		toks := strings.Fields(line)
		if got, want := g.Specificity(toks), specificityRef(g, toks); got != want {
			t.Errorf("Specificity(%q) = %d, reference %d", line, got, want)
		}
		want, _ := matchTokensRef(g, toks)
		if got := g.MatchTokens(toks); got != want {
			t.Errorf("MatchTokens(%q) = %v, reference %v", line, got, want)
		}
	}
	if got := g.Specificity(strings.Fields("big k3 k1")); got != 3 {
		t.Errorf("Specificity(big k3 k1) = %d, want 3", got)
	}
}

// FuzzSpecificity checks the dense Specificity and MatchTokens against
// their references on arbitrary lines, seeded with paper-scale Huawei
// example lines and their mutations.
func FuzzSpecificity(f *testing.F) {
	fx := specFix()
	r := rand.New(rand.NewPCG(3, 4))
	vocab := []string{"peer", "as-number", "ipv4-family", "undo", "100", "10.0.0.1"}
	for i := 0; i < len(fx.lines); i += 512 {
		for _, toks := range mutations(strings.Fields(fx.lines[i]), r, vocab) {
			f.Add(uint16(i), strings.Join(toks, " "))
		}
	}
	f.Fuzz(func(t *testing.T, pick uint16, line string) {
		checkSpecificity(t, fx, strings.Fields(line), fx.graphs[int(pick)%len(fx.graphs)])
	})
}

func TestSpecificityScores(t *testing.T) {
	base := mustGraph(t, "qos <policy-name>")
	variant := mustGraph(t, "qos ipv4-family")
	toks := strings.Fields("qos ipv4-family")
	if got := base.Specificity(toks); got != 1 {
		t.Errorf("base specificity = %d, want 1 (only the leading keyword)", got)
	}
	if got := variant.Specificity(toks); got != 2 {
		t.Errorf("variant specificity = %d, want 2", got)
	}
	if got := base.Specificity(strings.Fields("qos gold5")); got != 1 {
		t.Errorf("plain instance specificity = %d, want 1", got)
	}
	if got := variant.Specificity(strings.Fields("qos gold5")); got != -1 {
		t.Errorf("non-matching specificity = %d, want -1", got)
	}
	if got := base.Specificity(nil); got != -1 {
		t.Errorf("empty specificity = %d, want -1", got)
	}
}

func TestSpecificityWithBranches(t *testing.T) {
	g := mustGraph(t, "filter { <name> | export }")
	// "export" can match either the parameter (string) or the keyword
	// branch; specificity must take the keyword interpretation.
	if got := g.Specificity(strings.Fields("filter export")); got != 2 {
		t.Errorf("specificity = %d, want 2 (keyword branch preferred)", got)
	}
	if got := g.Specificity(strings.Fields("filter custom1")); got != 1 {
		t.Errorf("specificity = %d, want 1", got)
	}
}

// MatchBest must resolve the string-parameter shadowing that made the
// hierarchy deriver over-report ambiguity: `qos ipv4-family` matches both
// templates but only the exact-keyword one survives.
func TestMatchBestResolvesShadowing(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add("base", "qos <policy-name>", nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("variant", "qos ipv4-family", nil); err != nil {
		t.Fatal(err)
	}
	if got := ix.Match("qos ipv4-family"); len(got) != 2 {
		t.Fatalf("Match = %v, want both candidates", got)
	}
	if got := ix.MatchBest("qos ipv4-family"); !reflect.DeepEqual(got, []string{"variant"}) {
		t.Errorf("MatchBest = %v, want [variant]", got)
	}
	if got := ix.MatchBest("qos gold5"); !reflect.DeepEqual(got, []string{"base"}) {
		t.Errorf("MatchBest = %v, want [base]", got)
	}
	if got := ix.MatchBest(""); got != nil {
		t.Errorf("MatchBest(\"\") = %v", got)
	}
	if got := ix.MatchBest("unknown line"); got != nil {
		t.Errorf("MatchBest(unknown) = %v", got)
	}
}

func TestMatchBestKeepsTies(t *testing.T) {
	ix := NewIndex()
	_ = ix.Add("a", "peer <ipv4-address> group <g>", nil)
	_ = ix.Add("b", "peer <ipv4-address> group <h>", nil)
	got := ix.MatchBest("peer 10.0.0.1 group test")
	if len(got) != 2 {
		t.Errorf("MatchBest = %v, want both equally specific candidates", got)
	}
}
