package artemis

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"artemis/internal/prefix"
)

// Duration is time.Duration with Go duration-string JSON/YAML encoding
// ("15s", "10m"), so the declarative config and the control plane's JSON
// speak the same dialect.
type Duration time.Duration

// Std returns the standard-library value.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(d.String())), nil
}

// UnmarshalJSON accepts a Go duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("duration must be a string like \"15s\"")
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Source transport types accepted in SourceSpec.Type.
const (
	SourceRIS       = "ris"       // RIS Live-style websocket stream
	SourceBGPmon    = "bgpmon"    // BGPmon-style XML TCP stream
	SourceMRT       = "mrt"       // MRT archive replay from a file
	SourcePeriscope = "periscope" // Periscope-style looking-glass REST polling
	SourceBMP       = "bmp"       // BMP station session to a router (RFC 7854)
	SourceReplay    = "replay"    // eventlog archive replay (record/replay loop)
)

// SourceSpec declares one monitoring feed. Which fields apply depends on
// Type: URL for ris (ws://…) and periscope (http://…), Addr for bgpmon
// and bmp (host:port), Path for mrt and replay (for replay, a glob over
// rotated segments); Interval and LGs tune periscope polling, Speed the
// replay time compression.
type SourceSpec struct {
	Type string `json:"type"`
	// Name labels the source in metrics, health and events. Defaults to
	// "type[N]".
	Name     string   `json:"name,omitempty"`
	URL      string   `json:"url,omitempty"`
	Addr     string   `json:"addr,omitempty"`
	Path     string   `json:"path,omitempty"`
	Interval Duration `json:"interval,omitempty"`
	LGs      []string `json:"lgs,omitempty"`
	// Speed is the replay time-compression factor (replay sources only):
	// 1 = recorded cadence, 16 = sixteen times faster, 0 = as fast as
	// possible. Events keep their recorded clocks at any speed, so
	// detection behaves identically — only wall time shrinks.
	Speed float64 `json:"speed,omitempty"`
	// MaxEventsPerSec, when positive, rate-limits the source with a
	// token bucket: live (drop-policy) sources shed over-limit batches,
	// replay (blocking) sources are paced. The shed count is the
	// rate_shed_total metric.
	MaxEventsPerSec int `json:"max_events_per_sec,omitempty"`
}

// RecordConfig declares the event archive sink: every post-dedup event
// the pipeline ingests is appended to size/time-rotated eventlog
// segments (docs/INTERCHANGE.md), which replay sources re-run at any
// speed. The recorder is bounded and lossy by design — a slow disk
// drops archive batches (counted in artemis_record_dropped_total) but
// never stalls detection.
type RecordConfig struct {
	// Path is the segment path prefix: "captures/cap" writes
	// captures/cap-000001.evlog, -000002, … Empty disables recording.
	Path string `json:"path,omitempty"`
	// MaxFileSize rotates a segment once it exceeds this many bytes
	// (default 64 MiB).
	MaxFileSize int64 `json:"max_file_size,omitempty"`
	// MaxFileAge rotates a segment after this long regardless of size
	// (default: size-only rotation).
	MaxFileAge Duration `json:"max_file_age,omitempty"`
	// QueueDepth bounds the recorder's pending-batch queue (default 64).
	QueueDepth int `json:"queue_depth,omitempty"`
}

// MitigationConfig declares how alerts are mitigated.
type MitigationConfig struct {
	// Controller is the REST base URL of the route-injecting controller.
	// Empty (and no WithRouteInjector option) leaves mitigation manual.
	Controller string `json:"controller,omitempty"`
	// ConfigDelay models the controller's configuration latency
	// (default 15s, the paper's measurement; negative = no delay).
	ConfigDelay Duration `json:"config_delay,omitempty"`
	// QueueDepth bounds the async mitigation queue (default 64).
	QueueDepth int `json:"queue_depth,omitempty"`
	// MaxDeaggLen/MaxDeaggLen6 clamp de-aggregated announcements
	// (defaults 24 and 48).
	MaxDeaggLen  int `json:"max_deagg_len,omitempty"`
	MaxDeaggLen6 int `json:"max_deagg_len6,omitempty"`
	// Manual disables automatic alert→mitigation wiring even when a
	// controller or injector is configured.
	Manual bool `json:"manual,omitempty"`
}

// TuningConfig bounds the daemon's queues and state.
type TuningConfig struct {
	// SourceQueue bounds each feed source's pending-batch queue (default 64).
	SourceQueue int `json:"source_queue,omitempty"`
	// DedupTTL is the cross-source dedup window (default 10m; negative
	// disables).
	DedupTTL Duration `json:"dedup_ttl,omitempty"`
	// AlertTTL is the incident dedup window: after it, a hijack still
	// live re-alerts (default 24h; negative dedups forever — unbounded
	// suppression, the virtual-time experiments' semantics). Hot-tunable:
	// POST /v1/config retunes the live dedup sets without a restart.
	AlertTTL Duration `json:"alert_ttl,omitempty"`
	// AlertDedupMax caps the incident dedup set (default 65536). Hot-tunable.
	AlertDedupMax int `json:"alert_dedup_max,omitempty"`
	// MaxMitigationRetries bounds automatic re-attempts after a southbound
	// mitigation failure (default 5). Hot-tunable: the bound is read from
	// the active snapshot on every failure, so retuning applies to
	// incidents already in the retry loop.
	MaxMitigationRetries int `json:"max_mitigation_retries,omitempty"`
}

// RIBConfig declares the node's route-intelligence table: a full
// longest-prefix-match view of what the feeds observe, behind the
// /v1/lookup and /v1/as glass endpoints and the artemis_rib_* metrics.
type RIBConfig struct {
	// Enabled turns the table on. Live feed events are folded into it as
	// they arrive (announce/withdraw movement is counted per family and
	// per mask length).
	Enabled bool `json:"enabled,omitempty"`
	// Path, when set, bootstraps the table from an MRT TABLE_DUMP_V2
	// snapshot (a RIB dump) before sources start, so lookups answer from
	// a full table instead of only post-start churn. Implies Enabled.
	Path string `json:"path,omitempty"`
}

// RPKIConfig declares the ROA source for route-origin validation
// (RFC 6811). With a table loaded, ROA-valid announcements of owned
// space are fast-rejected in the classifier and origin alerts carry an
// "invalid"/"unknown" verdict as evidence.
type RPKIConfig struct {
	// Path loads a JSON ROA export (routinator/rpki-client/RIPE format)
	// from disk.
	Path string `json:"path,omitempty"`
	// URL fetches the export from a REST endpoint (e.g. a local
	// routinator's /json) instead. Exactly one of Path and URL may be set.
	URL string `json:"url,omitempty"`
	// Refresh re-fetches the URL periodically and swaps the new table
	// into every tenant's config at a pipeline barrier (URL sources only;
	// 0 = fetch once at startup).
	Refresh Duration `json:"refresh,omitempty"`
}

// ASNamesConfig declares the AS-name registry used to enrich alerts and
// lookup responses with the announcing network's name and locale.
type ASNamesConfig struct {
	// Path is a CSV of "asn,name[,locale]" rows ('#' comments allowed;
	// the ASN accepts an optional "AS" prefix).
	Path string `json:"path,omitempty"`
}

// ControlConfig declares the HTTP control plane.
type ControlConfig struct {
	// Listen is the address the control plane (REST API + /metrics)
	// serves on, e.g. ":9130". Empty disables serving (the API is still
	// available via control.NewServer for embedders).
	Listen string `json:"listen,omitempty"`
	// AdminToken, when set, gates the control plane: admin endpoints
	// (tenant CRUD, sources, full config) require this bearer token, and
	// tenant endpoints require it or the tenant's own token. When neither
	// an admin token nor any tenant token is configured the control plane
	// is open (the single-operator deployment).
	AdminToken string `json:"admin_token,omitempty"`
	// StateFile, when set, persists the declarative config (tenants
	// included) as JSON after every successful mutation — atomic
	// write-to-temp + rename — so hot tenant/prefix/source changes
	// survive a restart. The daemon prefers the state file over the
	// original config file when both exist.
	StateFile string `json:"state_file,omitempty"`
}

// TenantLimits bounds one tenant's share of a hosted node, isolating
// noisy tenants from the rest of the shared pipeline.
type TenantLimits struct {
	// MaxEventsPerSec caps classification work per tenant (an event-time
	// token bucket; 0 = unlimited). Dropped classifications are counted
	// and surfaced as KindLimit events, never silently discarded.
	MaxEventsPerSec int `json:"max_events_per_sec,omitempty"`
	// MitigationRatePerMin caps automatic mitigations per minute
	// (0 = unlimited). Rate-limited alerts stay visible as alerts and in
	// KindLimit events; operators can still mitigate manually.
	MitigationRatePerMin int `json:"mitigation_rate_per_min,omitempty"`
	// StreamBuffer caps the tenant's per-subscription event buffer
	// (0 = default 64). A tenant subscriber that falls behind loses its
	// oldest events instead of growing shared memory.
	StreamBuffer int `json:"stream_buffer,omitempty"`
}

// TenantSpec declares one tenant of a hosted (multi-tenant) node: a
// named config scope — owned prefixes, legitimate origins, neighbor
// policy — classified on the shared pipeline under its own policy.
// Tenants may own overlapping or even identical prefixes; a matching
// announcement is evaluated once per owning tenant.
type TenantSpec struct {
	// Name identifies the tenant in alerts, events, metrics and the
	// control plane. Required, unique, and not "default" (reserved for
	// the implicit tenant formed by the top-level prefixes/origins).
	Name string `json:"name"`
	// Prefixes is the tenant's owned address space, v4 and v6 mixed.
	Prefixes []string `json:"prefixes"`
	// Origins are the ASNs allowed to originate the tenant's prefixes.
	Origins []uint32 `json:"origins"`
	// Upstreams enables per-tenant path-anomaly detection (per origin,
	// the neighbor ASes allowed next to it in a path).
	Upstreams map[uint32][]uint32 `json:"upstreams,omitempty"`
	// Token is the tenant's bearer token for the control plane. Empty
	// means the tenant is reachable only with the admin token.
	Token string `json:"token,omitempty"`
	// Limits bound the tenant's share of the shared pipeline.
	Limits TenantLimits `json:"limits,omitempty"`
}

// Config is the declarative description of an ARTEMIS instance: the
// operator's ground truth (owned prefixes, legitimate origins, neighbor
// policy), the monitoring sources, and the runtime tuning. It is what
// artemis.yaml deserializes into, what GET /v1/config serializes out of,
// and the argument to New.
type Config struct {
	// Prefixes is the owned address space, v4 and v6 freely mixed.
	Prefixes []string `json:"prefixes"`
	// Origins are the ASNs allowed to originate the owned prefixes.
	Origins []uint32 `json:"origins"`
	// Upstreams, when non-empty, enables path-anomaly detection: per
	// legitimate origin, the neighbor ASes allowed next to it in a path.
	Upstreams map[uint32][]uint32 `json:"upstreams,omitempty"`
	// Tenants declares additional config scopes for hosted (multi-tenant)
	// deployments: one shared pipeline and feed union, per-tenant policy.
	// The top-level Prefixes/Origins/Upstreams, when present, form the
	// implicit "default" tenant; a config may also be tenants-only.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Sources are the monitoring feeds to supervise. They are shared:
	// every tenant's detection is fed from the same supervised union.
	Sources []SourceSpec `json:"sources,omitempty"`

	Mitigation MitigationConfig `json:"mitigation,omitempty"`
	Record     RecordConfig     `json:"record,omitempty"`
	Tuning     TuningConfig     `json:"tuning,omitempty"`
	Control    ControlConfig    `json:"control,omitempty"`
	RIB        RIBConfig        `json:"rib,omitzero"`
	RPKI       RPKIConfig       `json:"rpki,omitzero"`
	ASNames    ASNamesConfig    `json:"asnames,omitzero"`
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	next := *c
	next.Prefixes = append([]string(nil), c.Prefixes...)
	next.Origins = append([]uint32(nil), c.Origins...)
	next.Upstreams = cloneUpstreams(c.Upstreams)
	if c.Tenants != nil {
		next.Tenants = make([]TenantSpec, len(c.Tenants))
		for i, t := range c.Tenants {
			next.Tenants[i] = t.Clone()
		}
	}
	next.Sources = make([]SourceSpec, len(c.Sources))
	for i, s := range c.Sources {
		next.Sources[i] = s
		next.Sources[i].LGs = append([]string(nil), s.LGs...)
	}
	return &next
}

// Clone returns a deep copy of the tenant spec.
func (t TenantSpec) Clone() TenantSpec {
	t.Prefixes = append([]string(nil), t.Prefixes...)
	t.Origins = append([]uint32(nil), t.Origins...)
	t.Upstreams = cloneUpstreams(t.Upstreams)
	return t
}

func cloneUpstreams(u map[uint32][]uint32) map[uint32][]uint32 {
	if u == nil {
		return nil
	}
	out := make(map[uint32][]uint32, len(u))
	for k, v := range u {
		out[k] = append([]uint32(nil), v...)
	}
	return out
}

// DefaultTenant names the implicit tenant formed by a config's top-level
// Prefixes/Origins/Upstreams — the single-operator deployment, and the
// scope un-scoped control-plane calls act on.
const DefaultTenant = "default"

// Validate checks a config. It is the one validator for every way a
// config arrives: a file (ParseConfig), the state file, POST /v1/config
// and New. An error about one field carries that field's path, which
// ParseConfig turns into a line number.
func (c *Config) Validate() error {
	if len(c.Prefixes) == 0 && len(c.Tenants) == 0 {
		return fmt.Errorf("artemis: missing required key \"prefixes\" (or \"tenants\")")
	}
	if len(c.Prefixes) > 0 {
		if err := validateScope(c.Prefixes, c.Origins); err != nil {
			return err
		}
	}
	tnames := map[string]bool{}
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if err := t.validate(); err != nil {
			return at(err, "tenants", i)
		}
		if tnames[t.Name] {
			return at(fmt.Errorf("artemis: duplicate tenant name %q", t.Name), "tenants", i)
		}
		tnames[t.Name] = true
	}
	names := map[string]bool{}
	for i := range c.Sources {
		if err := c.Sources[i].validate(); err != nil {
			return at(err, "sources", i)
		}
		if n := c.Sources[i].Name; n != "" {
			if names[n] {
				return at(fmt.Errorf("artemis: duplicate source name %q", n), "sources", i)
			}
			names[n] = true
		}
	}
	if c.RPKI.Path != "" && c.RPKI.URL != "" {
		return at(fmt.Errorf("artemis: rpki needs path or url, not both"), "rpki")
	}
	if c.RPKI.Refresh != 0 && c.RPKI.URL == "" {
		return at(fmt.Errorf("artemis: rpki refresh needs a url source"), "rpki")
	}
	if c.RPKI.Refresh < 0 {
		return at(fmt.Errorf("artemis: negative rpki refresh"), "rpki", "refresh")
	}
	return nil
}

// validateScope checks one tenant scope's prefix/origin lists.
func validateScope(prefixes []string, origins []uint32) error {
	seen := map[prefix.Prefix]bool{}
	for i, s := range prefixes {
		p, err := prefix.Parse(s)
		if err != nil {
			return at(fmt.Errorf("artemis: bad prefix %q: %v", s, err), "prefixes", i)
		}
		if seen[p] {
			return at(fmt.Errorf("artemis: duplicate prefix %q", s), "prefixes", i)
		}
		seen[p] = true
	}
	if len(origins) == 0 {
		return at(fmt.Errorf("artemis: missing required key \"origins\""), "origins")
	}
	return nil
}

func (t *TenantSpec) validate() error {
	if t.Name == "" {
		return fmt.Errorf("artemis: tenant missing name")
	}
	if t.Name == DefaultTenant {
		return at(fmt.Errorf("artemis: tenant name %q is reserved for the top-level prefixes", DefaultTenant), "name")
	}
	if len(t.Prefixes) == 0 {
		return fmt.Errorf("artemis: tenant %q has no prefixes", t.Name)
	}
	if err := validateScope(t.Prefixes, t.Origins); err != nil {
		return fmt.Errorf("%w (tenant %q)", err, t.Name)
	}
	if t.Limits.MaxEventsPerSec < 0 || t.Limits.MitigationRatePerMin < 0 || t.Limits.StreamBuffer < 0 {
		return at(fmt.Errorf("artemis: tenant %q has negative limits", t.Name), "limits")
	}
	return nil
}

func (s *SourceSpec) validate() error {
	switch s.Type {
	case SourceRIS, SourcePeriscope:
		if s.URL == "" {
			return fmt.Errorf("artemis: %s source needs url", s.Type)
		}
	case SourceBGPmon:
		if s.Addr == "" {
			return fmt.Errorf("artemis: bgpmon source needs addr")
		}
	case SourceMRT:
		if s.Path == "" {
			return fmt.Errorf("artemis: mrt source needs path")
		}
	case SourceBMP:
		if s.Addr == "" {
			return fmt.Errorf("artemis: bmp source needs addr")
		}
	case SourceReplay:
		if s.Path == "" {
			return fmt.Errorf("artemis: replay source needs path")
		}
	case "":
		return fmt.Errorf("artemis: source missing type")
	default:
		return fmt.Errorf("artemis: unknown source type %q", s.Type)
	}
	if s.Speed < 0 {
		return fmt.Errorf("artemis: source speed must be >= 0")
	}
	if s.Speed != 0 && s.Type != SourceReplay {
		return fmt.Errorf("artemis: speed only applies to replay sources")
	}
	if s.MaxEventsPerSec < 0 {
		return fmt.Errorf("artemis: max_events_per_sec must be >= 0")
	}
	return nil
}

// fieldError is a validation error about one field, tagged with the
// field's path from the enclosing value, e.g. ("tenants", 2, "prefixes",
// 0): JSON names and slice indices. Its text is the wrapped error's.
type fieldError struct {
	path []any
	err  error
}

func (e *fieldError) Error() string { return e.err.Error() }
func (e *fieldError) Unwrap() error { return e.err }

// at tags err with the path of the field it is about, relative to the
// value being validated; a caller one level up tags it again.
func at(err error, path ...any) error { return &fieldError{path: path, err: err} }

// fieldPath joins the paths of every fieldError in err's chain, outermost
// first, into the path from the root config.
func fieldPath(err error) []any {
	var path []any
	for ; err != nil; err = errors.Unwrap(err) {
		if fe, ok := err.(*fieldError); ok {
			path = append(path, fe.path...)
		}
	}
	return path
}

// LoadConfig reads and parses a declarative config file. Errors point at
// file:line.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(data, path)
}

// ParseConfig parses config data; name labels error positions (usually
// the file path). The YAML decodes by the JSON field tags and is checked
// by Validate, so a file accepts exactly the configs POST /v1/config
// does. Every error points at a line: unknown keys, malformed values,
// and each Validate error at the deepest node on its field's path.
func ParseConfig(data []byte, name string) (*Config, error) {
	root, err := parseYamlite(data, name)
	if err != nil {
		return nil, err
	}
	cfg := &Config{}
	if err := decodeYAML(name, "config", root, reflect.ValueOf(cfg).Elem()); err != nil {
		return nil, err
	}
	if cfg.RIB.Path != "" {
		cfg.RIB.Enabled = true // a bootstrap snapshot implies the table
	}
	if err := cfg.Validate(); err != nil {
		line := lineOf(root, fieldPath(err))
		return nil, fmt.Errorf("%s:%d: %s", name, line, strings.TrimPrefix(err.Error(), "artemis: "))
	}
	return cfg, nil
}

// lineOf follows path from n and returns the line of the deepest node it
// reaches.
func lineOf(n *yamlNode, path []any) int {
	for _, step := range path {
		var next *yamlNode
		switch s := step.(type) {
		case string:
			next = n.child(yamlKey(s))
		case int:
			if n.kind == yList && s < len(n.items) {
				next = n.items[s]
			}
		}
		if next == nil {
			break
		}
		n = next
	}
	return n.line
}

// yamlKey is the YAML key of the field with JSON name jsonName.
func yamlKey(jsonName string) string { return strings.ReplaceAll(jsonName, "_", "-") }

// decodeYAML decodes n into v by v's JSON field tags, the one schema the
// config has: a mapping decodes into a struct, keyed by each field's
// JSON name with '-' for '_'; a sequence, or a bare scalar, into a
// slice; a mapping keyed by origin ASN into map[uint32][]uint32. Every
// uint32 is an ASN. key names n in errors; name labels their positions.
func decodeYAML(name, key string, n *yamlNode, v reflect.Value) error {
	fail := func(line int, format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", name, line, fmt.Sprintf(format, args...))
	}
	switch v.Kind() {
	case reflect.Struct:
		if n.kind != yMap {
			return fail(n.line, "%s must be a mapping, not a %s", key, n.kind)
		}
		for _, k := range n.keys {
			i := yamlField(v.Type(), k)
			if i < 0 {
				return fail(n.vals[k].line, "unknown key %q", k)
			}
			if err := decodeYAML(name, k, n.vals[k], v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		items := n.items
		switch n.kind {
		case yScalar:
			items = nil
			if n.scalar != "" {
				items = []*yamlNode{n}
			}
		case yMap:
			return fail(n.line, "%s must be a sequence, not a %s", key, n.kind)
		}
		if len(items) == 0 {
			return nil
		}
		s := reflect.MakeSlice(v.Type(), len(items), len(items))
		for i, item := range items {
			if err := decodeYAML(name, key, item, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.Uint32 {
			break // only upstreams maps, keyed by origin ASN
		}
		if n.kind != yMap {
			return fail(n.line, "%s must map origin ASN to a list of neighbor ASNs", key)
		}
		m := reflect.MakeMapWithSize(v.Type(), len(n.keys))
		for _, k := range n.keys {
			origin, err := strconv.ParseUint(k, 10, 32)
			if err != nil {
				return fail(n.vals[k].line, "bad origin ASN %q", k)
			}
			elem := reflect.New(v.Type().Elem()).Elem()
			if err := decodeYAML(name, k, n.vals[k], elem); err != nil {
				return err
			}
			m.SetMapIndex(reflect.ValueOf(origin).Convert(v.Type().Key()), elem)
		}
		v.Set(m)
		return nil
	case reflect.String, reflect.Uint32, reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
		if n.kind != yScalar {
			return fail(n.line, "%s must be a scalar, not a %s", key, n.kind)
		}
		s := n.scalar
		switch {
		case v.Type() == reflect.TypeFor[Duration]():
			d, err := time.ParseDuration(s)
			if err != nil {
				return fail(n.line, "%s must be a duration like \"15s\"", key)
			}
			v.SetInt(int64(d))
		case v.Kind() == reflect.String:
			v.SetString(s)
		case v.Kind() == reflect.Uint32:
			asn, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return fail(n.line, "bad ASN %q", s)
			}
			v.SetUint(asn)
		case v.Kind() == reflect.Float64:
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fail(n.line, "%s must be a number", key)
			}
			v.SetFloat(x)
		case v.Kind() == reflect.Bool:
			if s != "true" && s != "false" {
				return fail(n.line, "%s must be true or false", key)
			}
			v.SetBool(s == "true")
		default: // int, int64
			x, err := strconv.ParseInt(s, 10, v.Type().Bits())
			if err != nil {
				return fail(n.line, "%s must be an integer", key)
			}
			v.SetInt(x)
		}
		return nil
	}
	return fail(n.line, "%s: cannot decode into %s", key, v.Type())
}

// yamlField returns the index of t's field whose YAML key is key, or -1.
func yamlField(t reflect.Type, key string) int {
	for i := range t.NumField() {
		jsonName, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if jsonName != "" && jsonName != "-" && yamlKey(jsonName) == key {
			return i
		}
	}
	return -1
}
