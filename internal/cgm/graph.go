// Package cgm implements the CLI Graph Model of NAssim's Validator (§5.2,
// Appendix C). A CGM is a finite state machine with a single root and a
// single terminal built from a CLI command template; keyword nodes require
// exact text matching while parameter nodes require only type matching.
// The Validator uses CGMs for three jobs: deciding whether a CLI instance
// matches a template (Algorithm 1/4, the workhorse of hierarchy derivation
// and empirical validation), enumerating root-to-terminal paths to generate
// test instances for live devices (§5.3), and doing both at Table 4 scale
// (CGM construction dominates hierarchy-derivation time in the paper).
package cgm

import (
	"fmt"
	"strings"

	"nassim/internal/clisyntax"
	"nassim/internal/devmodel"
)

// NodeKind distinguishes CGM node types (Figure 6: solid keyword circles,
// hollow parameter circles, plus the virtual root and terminal).
type NodeKind int

// CGM node kinds.
const (
	KindRoot NodeKind = iota
	KindTerminal
	KindKeyword
	KindParam
)

// node is one FSM state.
type node struct {
	kind NodeKind
	text string             // keyword text or parameter name
	typ  devmodel.ParamType // for KindParam
}

// Graph is a CLI graph model: a single-root single-terminal FSM over the
// tokens of a command template.
type Graph struct {
	nodes    []node
	succ     [][]int
	root     int
	terminal int

	// minToks/maxToks bound the token count of any accepting run, computed
	// once at build time. The index uses them as a second pruning level
	// after the leading keyword: an instance whose token count falls
	// outside the bounds cannot match, so the FSM never runs.
	minToks, maxToks int
}

// TokenBounds returns the minimum and maximum number of tokens any
// root-to-terminal path of the graph consumes.
func (g *Graph) TokenBounds() (min, max int) { return g.minToks, g.maxToks }

// computeTokenBounds runs a memoized DFS over the (acyclic) FSM. Keyword
// and parameter states consume one token each; root and terminal none.
func (g *Graph) computeTokenBounds() {
	const unset = -1
	mins := make([]int, len(g.nodes))
	maxs := make([]int, len(g.nodes))
	for i := range mins {
		mins[i] = unset
	}
	var dfs func(id int) (int, int)
	dfs = func(id int) (int, int) {
		if id == g.terminal {
			return 0, 0
		}
		if mins[id] != unset {
			return mins[id], maxs[id]
		}
		w := 0
		if k := g.nodes[id].kind; k == KindKeyword || k == KindParam {
			w = 1
		}
		lo, hi := int(^uint(0)>>1), -1
		for _, s := range g.succ[id] {
			smin, smax := dfs(s)
			if smax < 0 {
				continue // dead end: no path to terminal through s
			}
			if smin < lo {
				lo = smin
			}
			if smax > hi {
				hi = smax
			}
		}
		if hi < 0 {
			mins[id], maxs[id] = 0, -1 // no accepting path from here
			return 0, -1
		}
		mins[id], maxs[id] = w+lo, w+hi
		return mins[id], maxs[id]
	}
	g.minToks, g.maxToks = dfs(g.root)
}

// TypeResolver maps a parameter placeholder name to its value domain.
// The default resolver infers the domain from the name (devmodel.InferType);
// corpora with richer ParaDef information can supply a better one.
type TypeResolver func(param string) devmodel.ParamType

// fragment is an ε-free NFA fragment under construction: entry states,
// exit states, and whether the whole fragment can be skipped (optional).
type fragment struct {
	entries, exits []int
	skippable      bool
}

type builder struct {
	g      *Graph
	typeOf TypeResolver
}

func (b *builder) addNode(k NodeKind, text string) int {
	b.g.nodes = append(b.g.nodes, node{kind: k, text: text})
	b.g.succ = append(b.g.succ, nil)
	return len(b.g.nodes) - 1
}

func (b *builder) addEdge(from, to int) {
	for _, s := range b.g.succ[from] {
		if s == to {
			return
		}
	}
	b.g.succ[from] = append(b.g.succ[from], to)
}

// build recursively translates the nested CLI structure into an FSM
// fragment (the Algorithm 2/3 role: leaves and group symbols become states
// and edges, with option groups contributing skip paths).
func (b *builder) build(n *clisyntax.Node) fragment {
	switch n.Kind {
	case clisyntax.KindLeaf:
		id := b.addNode(KindKeyword, n.Text)
		return fragment{entries: []int{id}, exits: []int{id}}
	case clisyntax.KindParam:
		id := b.addNode(KindParam, n.Text)
		b.g.nodes[id].typ = b.typeOf(n.Text)
		return fragment{entries: []int{id}, exits: []int{id}}
	case clisyntax.KindSeq:
		cur := fragment{skippable: true}
		for _, c := range n.Children {
			f := b.build(c)
			for _, e := range cur.exits {
				for _, en := range f.entries {
					b.addEdge(e, en)
				}
			}
			if cur.skippable {
				cur.entries = unionInts(cur.entries, f.entries)
			}
			if f.skippable {
				cur.exits = unionInts(cur.exits, f.exits)
			} else {
				cur.exits = f.exits
			}
			cur.skippable = cur.skippable && f.skippable
		}
		return cur
	case clisyntax.KindSelect, clisyntax.KindOption:
		out := fragment{skippable: n.Kind == clisyntax.KindOption}
		for _, branch := range n.Children {
			f := b.build(branch)
			out.entries = unionInts(out.entries, f.entries)
			out.exits = unionInts(out.exits, f.exits)
			out.skippable = out.skippable || f.skippable
		}
		return out
	}
	return fragment{skippable: true}
}

func unionInts(a, b []int) []int {
	for _, x := range b {
		found := false
		for _, y := range a {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			a = append(a, x)
		}
	}
	return a
}

// Build constructs the CGM of a parsed CLI structure.
func Build(n *clisyntax.Node, typeOf TypeResolver) *Graph {
	if typeOf == nil {
		typeOf = devmodel.InferType
	}
	g := &Graph{}
	b := &builder{g: g, typeOf: typeOf}
	g.root = b.addNode(KindRoot, "")
	f := b.build(n)
	g.terminal = b.addNode(KindTerminal, "")
	for _, en := range f.entries {
		b.addEdge(g.root, en)
	}
	for _, ex := range f.exits {
		b.addEdge(ex, g.terminal)
	}
	if f.skippable {
		b.addEdge(g.root, g.terminal)
	}
	g.computeTokenBounds()
	return g
}

// FromTemplate parses a template and builds its CGM. It fails exactly when
// formal syntax validation fails, so only validated templates get graphs.
// With the default resolver (typeOf == nil) the compiled graph comes from a
// process-wide content-keyed cache: identical templates across corpora and
// vendors compile once, and the immutable *Graph is shared.
func FromTemplate(tmpl string, typeOf TypeResolver) (*Graph, error) {
	if typeOf == nil {
		return fromTemplateCached(tmpl)
	}
	n, err := clisyntax.ParseCached(tmpl)
	if err != nil {
		return nil, err
	}
	return Build(n, typeOf), nil
}

// NodeCount returns the number of FSM states including root and terminal.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of FSM transitions.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// MatchTokens implements Algorithm 1's is_cli_match over a pre-split
// instance: breadth-first search for a root-to-terminal path whose states
// match the instance tokens. Each step is Algorithm 4: among the candidate
// states, keyword states matching the token exactly take priority, and
// only if there are none do parameter states whose type fits the token
// match (match_next); the next candidates are the union of the matched
// states' successors (get_next_candis).
//
// Candidate sets are dense flags indexed by state, swapped after every
// token, on the stack for graphs of up to stackStates states: hierarchy
// derivation and empirical validation match every line this way.
func (g *Graph) MatchTokens(toks []string) bool {
	if len(toks) == 0 {
		return false
	}
	n := len(g.nodes)
	var buf [2 * stackStates]bool
	var cur, next []bool
	if n <= stackStates {
		cur, next = buf[:n], buf[stackStates:stackStates+n]
	} else {
		s := make([]bool, 2*n)
		cur, next = s[:n], s[n:]
	}
	for _, s := range g.succ[g.root] {
		cur[s] = true
	}
	// State-machine steps (candidate states examined per token) accumulate
	// locally and land in the counter with one atomic add per call.
	steps := 0
	ok := func() bool {
		for _, tok := range toks {
			clear(next)
			matched := false
			for state, on := range cur {
				if !on {
					continue
				}
				steps++
				if nd := &g.nodes[state]; nd.kind == KindKeyword && nd.text == tok {
					matched = true
					for _, s := range g.succ[state] {
						next[s] = true
					}
				}
			}
			if !matched {
				for state, on := range cur {
					if nd := &g.nodes[state]; on && nd.kind == KindParam && devmodel.TypeMatches(nd.typ, tok) {
						matched = true
						for _, s := range g.succ[state] {
							next[s] = true
						}
					}
				}
			}
			if !matched {
				return false
			}
			cur, next = next, cur
		}
		return cur[g.terminal]
	}()
	telMatchSteps.Add(int64(steps))
	return ok
}

// Match reports whether a concrete CLI instance line matches the template.
func (g *Graph) Match(instance string) bool {
	return g.MatchTokens(strings.Fields(instance))
}

// Specificity returns the maximum number of instance tokens matched as
// exact keywords over any accepting run, or -1 when the instance does not
// match at all. One instance can match several templates when a
// string-typed parameter shadows a keyword (`qos ipv4-family` matches both
// `qos ipv4-family` and `qos <policy-name>`); resolution prefers the
// template that explains more tokens as keywords.
//
// The frontier is two dense score arrays indexed by state (-1: not a
// candidate), swapped after every token. Hierarchy derivation calls this
// for every candidate template of every example parent line, so the
// arrays live on the stack for graphs of up to stackStates states.
func (g *Graph) Specificity(toks []string) int {
	if len(toks) == 0 {
		return -1
	}
	n := len(g.nodes)
	var buf [2 * stackStates]int
	var cur, next []int
	if n <= stackStates {
		cur, next = buf[:n], buf[stackStates:stackStates+n]
	} else {
		s := make([]int, 2*n)
		cur, next = s[:n], s[n:]
	}
	for i := range cur {
		cur[i] = -1
	}
	for _, s := range g.succ[g.root] {
		cur[s] = 0
	}
	for _, tok := range toks {
		for i := range next {
			next[i] = -1
		}
		live := false
		for state, kws := range cur {
			if kws < 0 {
				continue
			}
			nd := &g.nodes[state]
			score := -1
			switch {
			case nd.kind == KindKeyword && nd.text == tok:
				score = kws + 1
			case nd.kind == KindParam && devmodel.TypeMatches(nd.typ, tok):
				score = kws
			}
			if score < 0 {
				continue
			}
			for _, s := range g.succ[state] {
				if score > next[s] {
					next[s] = score
					live = true
				}
			}
		}
		if !live {
			return -1
		}
		cur, next = next, cur
	}
	return cur[g.terminal]
}

// stackStates is the largest graph whose MatchTokens and Specificity
// frontiers are stack-allocated; bigger graphs allocate them once per call.
const stackStates = 32

// PathElem is one element of an enumerated root-to-terminal path.
type PathElem struct {
	IsParam bool
	Text    string             // keyword text or parameter name
	Type    devmodel.ParamType // for parameters
}

// Paths enumerates distinct root-to-terminal paths, up to limit (0 means
// no limit). The Validator instantiates these into CLI instances and issues
// them to devices to empirically test commands unused by any running-device
// configuration (§5.3).
func (g *Graph) Paths(limit int) [][]PathElem {
	var out [][]PathElem
	var cur []PathElem
	var dfs func(id int) bool
	dfs = func(id int) bool {
		if id == g.terminal {
			path := make([]PathElem, len(cur))
			copy(path, cur)
			out = append(out, path)
			return limit > 0 && len(out) >= limit
		}
		n := g.nodes[id]
		if n.kind == KindKeyword || n.kind == KindParam {
			cur = append(cur, PathElem{IsParam: n.kind == KindParam, Text: n.text, Type: n.typ})
			defer func() { cur = cur[:len(cur)-1] }()
		}
		for _, s := range g.succ[id] {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	dfs(g.root)
	return out
}

// String renders the graph in a compact adjacency form, for debugging and
// golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for id, n := range g.nodes {
		label := n.text
		switch n.kind {
		case KindRoot:
			label = "ROOT"
		case KindTerminal:
			label = "END"
		case KindParam:
			label = "<" + n.text + ">"
		}
		fmt.Fprintf(&b, "%d:%s ->", id, label)
		for _, s := range g.succ[id] {
			fmt.Fprintf(&b, " %d", s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
