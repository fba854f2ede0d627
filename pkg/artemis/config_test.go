package artemis

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

const fullConfig = `# ARTEMIS declarative configuration
prefixes:
  - 10.0.0.0/23
  - 2001:db8::/32

origins: [61000, 61001]

upstreams:
  61000:
    - 2000
    - 2001

sources:
  - type: ris
    url: ws://127.0.0.1:9000/v1/ws
    name: ris-main
  - type: bgpmon
    addr: 127.0.0.1:9001
  - type: mrt
    path: archive.mrt
  - type: periscope
    url: http://127.0.0.1:9002
    interval: 45s
    lgs: [lg-1001, lg-1002]

mitigation:
  controller: http://127.0.0.1:9003
  config-delay: 15s
  queue-depth: 32
  max-deagg-len: 24
  max-deagg-len6: 48

tuning:
  source-queue: 128
  dedup-ttl: 10m
  alert-ttl: 24h
  alert-dedup-max: 65536

control:
  listen: 127.0.0.1:9130
`

func TestParseConfigFull(t *testing.T) {
	cfg, err := ParseConfig([]byte(fullConfig), "artemis.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Prefixes; len(got) != 2 || got[0] != "10.0.0.0/23" || got[1] != "2001:db8::/32" {
		t.Fatalf("prefixes: %v", got)
	}
	if got := cfg.Origins; len(got) != 2 || got[0] != 61000 || got[1] != 61001 {
		t.Fatalf("origins: %v", got)
	}
	if got := cfg.Upstreams[61000]; len(got) != 2 || got[0] != 2000 || got[1] != 2001 {
		t.Fatalf("upstreams: %v", cfg.Upstreams)
	}
	if len(cfg.Sources) != 4 {
		t.Fatalf("sources: %+v", cfg.Sources)
	}
	if s := cfg.Sources[0]; s.Type != "ris" || s.Name != "ris-main" || s.URL != "ws://127.0.0.1:9000/v1/ws" {
		t.Fatalf("ris source: %+v", s)
	}
	if s := cfg.Sources[3]; s.Type != "periscope" || s.Interval.Std() != 45*time.Second ||
		len(s.LGs) != 2 || s.LGs[0] != "lg-1001" {
		t.Fatalf("periscope source: %+v", s)
	}
	if cfg.Mitigation.Controller != "http://127.0.0.1:9003" ||
		cfg.Mitigation.ConfigDelay.Std() != 15*time.Second ||
		cfg.Mitigation.QueueDepth != 32 {
		t.Fatalf("mitigation: %+v", cfg.Mitigation)
	}
	if cfg.Tuning.SourceQueue != 128 || cfg.Tuning.DedupTTL.Std() != 10*time.Minute ||
		cfg.Tuning.AlertTTL.Std() != 24*time.Hour || cfg.Tuning.AlertDedupMax != 65536 {
		t.Fatalf("tuning: %+v", cfg.Tuning)
	}
	if cfg.Control.Listen != "127.0.0.1:9130" {
		t.Fatalf("control: %+v", cfg.Control)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("parsed config fails Validate: %v", err)
	}
	// Clone round-trip: a deep copy is independent.
	clone := cfg.Clone()
	clone.Prefixes[0] = "changed"
	clone.Sources[3].LGs[0] = "changed"
	clone.Upstreams[61000][0] = 9
	if cfg.Prefixes[0] == "changed" || cfg.Sources[3].LGs[0] == "changed" || cfg.Upstreams[61000][0] == 9 {
		t.Fatal("Clone is shallow")
	}
}

// TestParseConfigErrorPositions asserts that every class of config
// mistake is reported with the file name and the offending line.
func TestParseConfigErrorPositions(t *testing.T) {
	cases := []struct {
		name    string
		yaml    string
		wantPos string // "file:line" prefix
		wantMsg string // substring of the message
	}{
		{
			name:    "bad prefix",
			yaml:    "prefixes:\n  - 10.0.0.0/23\n  - not-a-prefix\norigins: [1]\n",
			wantPos: "t.yaml:3:",
			wantMsg: "bad prefix",
		},
		{
			name:    "bad origin",
			yaml:    "prefixes:\n  - 10.0.0.0/23\norigins:\n  - sixty\n",
			wantPos: "t.yaml:4:",
			wantMsg: "bad ASN",
		},
		{
			name:    "unknown top-level key",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\nprefixxes: [10.0.0.0/24]\n",
			wantPos: "t.yaml:3:",
			wantMsg: `unknown key "prefixxes"`,
		},
		{
			name:    "missing prefixes",
			yaml:    "origins: [1]\n",
			wantPos: "t.yaml:1:",
			wantMsg: "missing required key",
		},
		{
			name:    "source missing field",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\nsources:\n  - type: ris\n",
			wantPos: "t.yaml:4:",
			wantMsg: "ris source needs url",
		},
		{
			name:    "unknown source type",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\nsources:\n  - type: carrier-pigeon\n",
			wantPos: "t.yaml:4:",
			wantMsg: "unknown source type",
		},
		{
			// The pipeline has one worker; the old shard knob is an
			// unknown key like any other.
			name:    "removed tuning key",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\ntuning:\n  shards: 4\n",
			wantPos: "t.yaml:4:",
			wantMsg: `unknown key "shards"`,
		},
		{
			name:    "bad duration",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\ntuning:\n  dedup-ttl: fortnight\n",
			wantPos: "t.yaml:4:",
			wantMsg: "duration",
		},
		{
			name:    "duplicate key",
			yaml:    "prefixes: [10.0.0.0/23]\nprefixes: [10.0.0.0/24]\n",
			wantPos: "t.yaml:2:",
			wantMsg: "duplicate key",
		},
		{
			name:    "duplicate prefix",
			yaml:    "prefixes:\n  - 10.0.0.0/23\n  - 10.0.0.0/23\norigins: [1]\n",
			wantPos: "t.yaml:3:",
			wantMsg: "duplicate prefix",
		},
		{
			name:    "tab indentation",
			yaml:    "prefixes:\n\t- 10.0.0.0/23\n",
			wantPos: "t.yaml:2:",
			wantMsg: "tab",
		},
		{
			name:    "bad upstream key",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\nupstreams:\n  not-an-asn:\n    - 2000\n",
			wantPos: "t.yaml:5:",
			wantMsg: "bad origin ASN",
		},
		{
			name:    "duplicate source name",
			yaml:    "prefixes: [10.0.0.0/23]\norigins: [1]\nsources:\n  - type: mrt\n    path: a.mrt\n    name: x\n  - type: mrt\n    path: b.mrt\n    name: x\n",
			wantPos: "t.yaml:7:",
			wantMsg: "duplicate source name",
		},
		{
			// Validate's error for a tenant's prefix keeps its path
			// through the tenant wrapper, down to the list item.
			name:    "bad tenant prefix",
			yaml:    "tenants:\n  - name: acme\n    origins: [1]\n    prefixes:\n      - 192.0.2.0/24\n      - 192.0.2.0/33\n",
			wantPos: "t.yaml:6:",
			wantMsg: `bad prefix "192.0.2.0/33"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseConfig([]byte(tc.yaml), "t.yaml")
			if err == nil {
				t.Fatalf("config accepted:\n%s", tc.yaml)
			}
			if !strings.HasPrefix(err.Error(), tc.wantPos) {
				t.Fatalf("error %q does not point at %q", err, tc.wantPos)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestParseConfigQuotedHash: '#' inside a quoted scalar is content, not
// a comment; an unquoted '#' glued to a value survives too.
func TestParseConfigQuotedHash(t *testing.T) {
	yaml := "prefixes: [10.0.0.0/23]\norigins: [1]\nsources:\n" +
		"  - type: mrt\n    path: \"dir #1/x.mrt\" # a real comment\n    name: 'feed #1'\n" +
		"control:\n  listen: host:9130#frag\n"
	cfg, err := ParseConfig([]byte(yaml), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sources[0].Path != "dir #1/x.mrt" || cfg.Sources[0].Name != "feed #1" {
		t.Fatalf("quoted # mangled: %+v", cfg.Sources[0])
	}
	if cfg.Control.Listen != "host:9130#frag" {
		t.Fatalf("glued # mangled: %q", cfg.Control.Listen)
	}
}

func TestDurationJSON(t *testing.T) {
	d := Duration(15 * time.Second)
	b, err := d.MarshalJSON()
	if err != nil || string(b) != `"15s"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
	var back Duration
	if err := back.UnmarshalJSON([]byte(`"10m"`)); err != nil || back.Std() != 10*time.Minute {
		t.Fatalf("unmarshal: %v %v", back, err)
	}
	if err := back.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Fatal("numeric duration accepted")
	}
}

// TestParseConfigRouteIntel covers the rib:/rpki:/asnames: blocks that
// configure the route table, origin validation and AS-name enrichment.
func TestParseConfigRouteIntel(t *testing.T) {
	yaml := `prefixes: [10.0.0.0/23]
origins: [61000]
rib:
  path: testdata/rib.mrt
rpki:
  url: http://127.0.0.1:8323/json
  refresh: 1h
asnames:
  path: asnames.csv
`
	cfg, err := ParseConfig([]byte(yaml), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.RIB.Enabled || cfg.RIB.Path != "testdata/rib.mrt" {
		t.Fatalf("rib = %+v (a path must imply enabled)", cfg.RIB)
	}
	if cfg.RPKI.URL != "http://127.0.0.1:8323/json" || cfg.RPKI.Refresh.Std() != time.Hour {
		t.Fatalf("rpki = %+v", cfg.RPKI)
	}
	if cfg.ASNames.Path != "asnames.csv" {
		t.Fatalf("asnames = %+v", cfg.ASNames)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// A live-only table: enabled without a bootstrap path.
	cfg, err = ParseConfig([]byte("prefixes: [10.0.0.0/23]\norigins: [61000]\nrib:\n  enabled: true\n"), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.RIB.Enabled || cfg.RIB.Path != "" {
		t.Fatalf("rib = %+v", cfg.RIB)
	}

	bad := []struct {
		yaml string
		msg  string
	}{
		{"prefixes: [10.0.0.0/23]\norigins: [1]\nrpki:\n  path: a.json\n  url: http://x/json\n", "path or url, not both"},
		{"prefixes: [10.0.0.0/23]\norigins: [1]\nrpki:\n  refresh: 1h\n", "refresh needs a url"},
		{"prefixes: [10.0.0.0/23]\norigins: [1]\nrib:\n  pathh: x\n", `unknown key "pathh"`},
		{"prefixes: [10.0.0.0/23]\norigins: [1]\nasnames:\n  url: http://x\n", `unknown key "url"`},
	}
	for _, c := range bad {
		if _, err := ParseConfig([]byte(c.yaml), "t.yaml"); err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("yaml %q: err = %v, want %q", c.yaml, err, c.msg)
		}
	}
}

// TestREADMESchema: the yaml block after "The full schema:" in README.md
// decodes, and it sets every leaf field of Config, so the documented
// schema and the code cannot drift apart. Validate is not run: the
// block sets both rpki.path and rpki.url to document both.
func TestREADMESchema(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "The full schema:")
	if ok {
		_, block, ok = strings.Cut(block, "```yaml\n")
	}
	if ok {
		block, _, ok = strings.Cut(block, "```")
	}
	if !ok {
		t.Fatal("README.md has no yaml block after \"The full schema:\"")
	}
	root, err := parseYamlite([]byte(block), "README.md")
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if err := decodeYAML("README.md", "config", root, reflect.ValueOf(&cfg).Elem()); err != nil {
		t.Fatal(err)
	}

	// The keys the block sets, per struct type they decode into.
	set := map[reflect.Type]map[string]bool{}
	var keys func(n *yamlNode, typ reflect.Type)
	keys = func(n *yamlNode, typ reflect.Type) {
		switch {
		case typ.Kind() == reflect.Slice && n.kind == yList:
			for _, item := range n.items {
				keys(item, typ.Elem())
			}
		case typ.Kind() == reflect.Struct && n.kind == yMap:
			if set[typ] == nil {
				set[typ] = map[string]bool{}
			}
			for _, k := range n.keys {
				set[typ][k] = true
				keys(n.vals[k], typ.Field(yamlField(typ, k)).Type)
			}
		}
	}
	keys(root, reflect.TypeFor[Config]())

	var leaves func(typ reflect.Type, path string)
	leaves = func(typ reflect.Type, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			key := yamlKey(jsonName)
			elem := f.Type
			if elem.Kind() == reflect.Slice {
				elem = elem.Elem()
			}
			if elem.Kind() == reflect.Struct {
				leaves(elem, path+key+".")
			} else if !set[typ][key] {
				t.Errorf("README schema never sets %s%s", path, key)
			}
		}
	}
	leaves(reflect.TypeFor[Config](), "")
}
