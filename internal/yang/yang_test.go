package yang

import (
	"context"
	"strings"
	"testing"

	"nassim/internal/clisyntax"
	"nassim/internal/corpus"
	"nassim/internal/devmodel"
	"nassim/internal/hierarchy"
)

const sampleModule = `
// Native BGP model.
module huawei-bgp {
  namespace "urn:huawei:yang:bgp";
  prefix bgp;
  description "Native Huawei data model for the bgp subsystem.";
  container bgp {
    description "BGP view";
    leaf as-number {
      type uint32 { range "1..4294967295"; }
      description "Specifies the autonomous system number.";
    }
    list peer {
      key "ipv4-address";
      leaf ipv4-address {
        type inet:ipv4-address;
        description "Specifies the IPv4 address of a peer.";
      }
      leaf group-name {
        type string;
        description "Specifies the name of a peer group.";
      }
    }
  }
}`

func TestParseSampleModule(t *testing.T) {
	m, err := Parse(sampleModule)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "huawei-bgp" || m.Prefix != "bgp" {
		t.Errorf("module = %q prefix = %q", m.Name, m.Prefix)
	}
	if m.Namespace != "urn:huawei:yang:bgp" {
		t.Errorf("namespace = %q", m.Namespace)
	}
	leaves := m.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(leaves))
	}
	as := leaves[0]
	if as.Name != "as-number" || as.Type != "uint32" || as.Range != "1..4294967295" {
		t.Errorf("as-number leaf = %+v", as)
	}
	if len(as.Path) != 1 || as.Path[0] != "bgp" {
		t.Errorf("as-number path = %v", as.Path)
	}
	peerIP := leaves[1]
	if !peerIP.ListKey {
		t.Error("ipv4-address should be the list key")
	}
	if got := strings.Join(peerIP.Path, "/"); got != "bgp/peer" {
		t.Errorf("peer leaf path = %q", got)
	}
	if !strings.Contains(peerIP.Description, "IPv4 address") {
		t.Errorf("description = %q", peerIP.Description)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"", "empty document"},
		{"container x { }", "want module"},
		{"module { }", "no name"},
		{`module m { description "unterminated`, "unterminated string"},
		{"module m { container x {", "unterminated"},
		{"module m { leaf x }", "unexpected"},
		{"module m {} extra;", "trailing content"},
		{"module m { /* never closed", "unterminated block comment"},
		{"module m", "not terminated"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.src, tc.frag)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%q) error = %q, want fragment %q", tc.src, err.Error(), tc.frag)
		}
	}
}

func TestParseEscapesAndComments(t *testing.T) {
	m, err := Parse(`module m {
  // line comment
  /* block
     comment */
  description "a \"quoted\" word and a\nnewline";
}`)
	if err != nil {
		t.Fatal(err)
	}
	desc := m.Root.ChildArg("description")
	if !strings.Contains(desc, `"quoted"`) || !strings.Contains(desc, "\n") {
		t.Errorf("description = %q", desc)
	}
}

func TestGenerateParsesBack(t *testing.T) {
	model := devmodel.Generate(devmodel.PaperConfig(devmodel.Huawei).Scaled(0.02))
	mods := Generate(model)
	if len(mods) == 0 {
		t.Fatal("no modules generated")
	}
	totalLeaves := 0
	for _, src := range mods {
		m, err := Parse(src.Text)
		if err != nil {
			t.Fatalf("module %s does not parse back: %v\n%s", src.Name, err, src.Text)
		}
		if m.Name != src.Name {
			t.Errorf("module name %q != source name %q", m.Name, src.Name)
		}
		totalLeaves += len(m.Leaves())
	}
	if totalLeaves == 0 {
		t.Fatal("no leaves across modules")
	}
}

func TestContainerName(t *testing.T) {
	cases := map[string]string{
		"BGP view":                  "bgp",
		"BGP-VPN instance view":     "bgp-vpn-instance",
		"global configuration mode": "global",
		"QoS IPv4 family view":      "qos-ipv4-family",
		"VLAN instance-3 view":      "vlan-instance-3",
		"configure context":         "configure",
	}
	for in, want := range cases {
		if got := ContainerName(in); got != want {
			t.Errorf("ContainerName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBridgeProducesValidCorpora(t *testing.T) {
	model := devmodel.Generate(devmodel.PaperConfig(devmodel.Huawei).Scaled(0.02))
	var modules []*Module
	for _, src := range Generate(model) {
		m, err := Parse(src.Text)
		if err != nil {
			t.Fatal(err)
		}
		modules = append(modules, m)
	}
	res := Bridge("Huawei", modules)
	if len(res.Corpora) == 0 || len(res.Corpora) != len(res.Origin) {
		t.Fatalf("corpora = %d, origin = %d", len(res.Corpora), len(res.Origin))
	}
	if rep := corpus.RunTests(res.Corpora); !rep.Passed() {
		t.Fatalf("bridged corpora fail completeness tests:\n%s", rep.Summary())
	}
	for i := range res.Corpora {
		if err := clisyntax.Validate(res.Corpora[i].PrimaryCLI()); err != nil {
			t.Fatalf("pseudo-template invalid: %v", err)
		}
	}
	// The explicit hierarchy must derive without example snippets.
	v, rep := hierarchy.Derive(context.Background(), "Huawei", res.Corpora, res.Edges, nil, 1)
	if rep.RootView != "yang data tree" {
		t.Errorf("root = %q", rep.RootView)
	}
	if len(v.InvalidCLIs) != 0 {
		t.Errorf("invalid templates: %v", v.InvalidCLIs)
	}
	if v.PairCount() != len(res.Corpora) {
		t.Errorf("pairs = %d, want %d (one view per leaf)", v.PairCount(), len(res.Corpora))
	}
}

func TestStmtAccessors(t *testing.T) {
	m, err := Parse(sampleModule)
	if err != nil {
		t.Fatal(err)
	}
	if m.Root.Child("nonexistent") != nil {
		t.Error("Child(nonexistent) != nil")
	}
	if got := m.Root.ChildArg("prefix"); got != "bgp" {
		t.Errorf("ChildArg(prefix) = %q", got)
	}
	containers := m.Root.All("container")
	if len(containers) != 1 || containers[0].Arg != "bgp" {
		t.Errorf("All(container) = %+v", containers)
	}
}
