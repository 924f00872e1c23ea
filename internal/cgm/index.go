package cgm

import (
	"fmt"
	"sort"
	"strings"
)

// Index resolves CLI instances to the command templates they instantiate,
// across a whole device model. Hierarchy derivation and empirical
// validation both need this lookup for every configuration line, so the
// index buckets graphs by their leading keyword (templates always start
// with a literal keyword) to avoid trying all 10k+ templates per line.
type Index struct {
	byFirst map[string][]indexEntry
	graphs  map[string]*Graph
	order   []string // insertion order of template IDs, for determinism
}

type indexEntry struct {
	id string
	g  *Graph
	// Token-count bounds of the graph, copied here so the Match hot loop
	// prunes without touching the graph's cache lines.
	minToks, maxToks int
}

// NewIndex returns an empty template index.
func NewIndex() *Index {
	return &Index{byFirst: map[string][]indexEntry{}, graphs: map[string]*Graph{}}
}

// Add parses the template, builds its CGM and registers it under the given
// ID. Adding fails exactly when the template fails formal syntax
// validation; the caller records such templates for expert review instead.
func (ix *Index) Add(id, template string, typeOf TypeResolver) error {
	if _, dup := ix.graphs[id]; dup {
		return fmt.Errorf("cgm: duplicate template id %q", id)
	}
	g, err := FromTemplate(template, typeOf)
	if err != nil {
		telTemplateErrors.Inc()
		return err
	}
	telTemplatesAdded.Inc()
	ix.graphs[id] = g
	ix.order = append(ix.order, id)
	minT, maxT := g.TokenBounds()
	for _, s := range g.succ[g.root] {
		n := g.nodes[s]
		if n.kind == KindKeyword {
			ix.byFirst[n.text] = append(ix.byFirst[n.text], indexEntry{id: id, g: g, minToks: minT, maxToks: maxT})
		}
	}
	return nil
}

// Match returns the IDs of all templates the instance matches. Candidates
// sharing the instance's leading keyword are pruned by their token-count
// bounds before the FSM runs. Results come back in natural ID order
// (numeric when both IDs are decimal, lexicographic otherwise), which is
// independent of registration order — two indices built from differently
// ordered corpora answer identically — and coincides with insertion order
// for the sequentially numbered corpus IDs the pipeline uses.
func (ix *Index) Match(instance string) []string {
	telMatchAttempts.Inc()
	toks := strings.Fields(instance)
	if len(toks) == 0 {
		return nil
	}
	n := len(toks)
	var out []string
	pruned := 0
	for _, e := range ix.byFirst[toks[0]] {
		if n < e.minToks || n > e.maxToks {
			pruned++
			continue
		}
		if e.g.MatchTokens(toks) {
			out = append(out, e.id)
		}
	}
	telMatchPruned.Add(int64(pruned))
	sortNaturalIDs(out)
	return out
}

// MatchBest returns only the most specific matching templates: among all
// templates the instance matches, those explaining the most tokens as
// exact keywords. This is the disambiguation hierarchy derivation uses
// when a string parameter of one template shadows a keyword of another.
func (ix *Index) MatchBest(instance string) []string {
	telMatchAttempts.Inc()
	toks := strings.Fields(instance)
	if len(toks) == 0 {
		return nil
	}
	n := len(toks)
	best := -1
	var out []string
	pruned := 0
	for _, e := range ix.byFirst[toks[0]] {
		if n < e.minToks || n > e.maxToks {
			pruned++
			continue
		}
		score := e.g.Specificity(toks)
		if score < 0 {
			continue
		}
		switch {
		case score > best:
			best = score
			out = append(out[:0], e.id)
		case score == best:
			out = append(out, e.id)
		}
	}
	telMatchPruned.Add(int64(pruned))
	sortNaturalIDs(out)
	return out
}

// sortNaturalIDs orders template IDs numerically when both are plain
// decimals and lexicographically otherwise, making Match results a pure
// function of the registered template set.
func sortNaturalIDs(ids []string) {
	if len(ids) < 2 {
		return
	}
	sort.Slice(ids, func(i, j int) bool { return naturalLessID(ids[i], ids[j]) })
}

func naturalLessID(a, b string) bool {
	na, aok := parseDecimal(a)
	nb, bok := parseDecimal(b)
	if aok && bok {
		return na < nb
	}
	return a < b
}

func parseDecimal(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Graph returns the CGM registered under the ID, or nil.
func (ix *Index) Graph(id string) *Graph { return ix.graphs[id] }

// IDs returns the registered template IDs in insertion order.
func (ix *Index) IDs() []string {
	out := make([]string, len(ix.order))
	copy(out, ix.order)
	return out
}

// Len returns the number of registered templates.
func (ix *Index) Len() int { return len(ix.graphs) }
