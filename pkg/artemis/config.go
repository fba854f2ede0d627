package artemis

import (
	"fmt"
	"os"
	"strconv"
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

// Validate checks a programmatically built config. Configs loaded via
// LoadConfig/ParseConfig are already validated with line positions.
func (c *Config) Validate() error {
	if len(c.Prefixes) == 0 && len(c.Tenants) == 0 {
		return fmt.Errorf("artemis: no owned prefixes or tenants configured")
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
			return err
		}
		if tnames[t.Name] {
			return fmt.Errorf("artemis: duplicate tenant name %q", t.Name)
		}
		tnames[t.Name] = true
	}
	names := map[string]bool{}
	for i := range c.Sources {
		if err := c.Sources[i].validate(); err != nil {
			return err
		}
		if n := c.Sources[i].Name; n != "" {
			if names[n] {
				return fmt.Errorf("artemis: duplicate source name %q", n)
			}
			names[n] = true
		}
	}
	if c.RPKI.Path != "" && c.RPKI.URL != "" {
		return fmt.Errorf("artemis: rpki needs path or url, not both")
	}
	if c.RPKI.Refresh != 0 && c.RPKI.URL == "" {
		return fmt.Errorf("artemis: rpki refresh needs a url source")
	}
	if c.RPKI.Refresh < 0 {
		return fmt.Errorf("artemis: negative rpki refresh")
	}
	return nil
}

// validateScope checks one tenant scope's prefix/origin lists.
func validateScope(prefixes []string, origins []uint32) error {
	seen := map[prefix.Prefix]bool{}
	for _, s := range prefixes {
		p, err := prefix.Parse(s)
		if err != nil {
			return fmt.Errorf("artemis: bad prefix %q: %v", s, err)
		}
		if seen[p] {
			return fmt.Errorf("artemis: duplicate prefix %q", s)
		}
		seen[p] = true
	}
	if len(origins) == 0 {
		return fmt.Errorf("artemis: no legitimate origins configured")
	}
	return nil
}

func (t *TenantSpec) validate() error {
	if t.Name == "" {
		return fmt.Errorf("artemis: tenant missing name")
	}
	if t.Name == DefaultTenant {
		return fmt.Errorf("artemis: tenant name %q is reserved for the top-level prefixes", DefaultTenant)
	}
	if len(t.Prefixes) == 0 {
		return fmt.Errorf("artemis: tenant %q has no prefixes", t.Name)
	}
	if err := validateScope(t.Prefixes, t.Origins); err != nil {
		return fmt.Errorf("%v (tenant %q)", err, t.Name)
	}
	if t.Limits.MaxEventsPerSec < 0 || t.Limits.MitigationRatePerMin < 0 || t.Limits.StreamBuffer < 0 {
		return fmt.Errorf("artemis: tenant %q has negative limits", t.Name)
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
// the file path). Every syntactic and semantic error is positioned:
// unknown keys, malformed prefixes, bad durations, incomplete sources.
func ParseConfig(data []byte, name string) (*Config, error) {
	root, err := parseYamlite(data, name)
	if err != nil {
		return nil, err
	}
	d := &configDecoder{name: name}
	cfg := d.decode(root)
	if d.err != nil {
		return nil, d.err
	}
	return cfg, nil
}

// configDecoder walks the node tree, remembering the first error.
type configDecoder struct {
	name string
	err  error
}

func (d *configDecoder) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s:%d: %s", d.name, line, fmt.Sprintf(format, args...))
	}
}

// checkKeys rejects unknown keys so typos fail loudly, with the line.
func (d *configDecoder) checkKeys(n *yamlNode, allowed ...string) {
	for _, k := range n.keys {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			d.fail(n.vals[k].line, "unknown key %q", k)
		}
	}
}

func (d *configDecoder) decode(root *yamlNode) *Config {
	cfg := &Config{}
	if root.kind != yMap {
		d.fail(root.line, "config must be a mapping")
		return cfg
	}
	d.checkKeys(root, "prefixes", "origins", "upstreams", "tenants", "sources", "mitigation", "record", "tuning", "control", "rib", "rpki", "asnames")

	if n := root.child("prefixes"); n != nil {
		for _, item := range d.scalarList(n) {
			if _, err := prefix.Parse(item.scalar); err != nil {
				d.fail(item.line, "bad prefix %q: %v", item.scalar, err)
			}
			cfg.Prefixes = append(cfg.Prefixes, item.scalar)
		}
	} else if root.child("tenants") == nil {
		d.fail(root.line, "missing required key \"prefixes\" (or \"tenants\")")
	}
	if n := root.child("origins"); n != nil {
		for _, item := range d.scalarList(n) {
			cfg.Origins = append(cfg.Origins, d.asASN(item))
		}
	} else if root.child("prefixes") != nil {
		d.fail(root.line, "missing required key \"origins\"")
	}
	cfg.Upstreams = d.decodeUpstreams(root.child("upstreams"))
	if n := root.child("tenants"); n != nil {
		if n.kind != yList {
			d.fail(n.line, "tenants must be a sequence")
		} else {
			for _, item := range n.items {
				cfg.Tenants = append(cfg.Tenants, d.decodeTenant(item))
			}
		}
	}
	if n := root.child("sources"); n != nil {
		if n.kind != yList {
			d.fail(n.line, "sources must be a sequence")
		} else {
			for _, item := range n.items {
				cfg.Sources = append(cfg.Sources, d.decodeSource(item))
			}
		}
	}
	if n := root.child("mitigation"); n != nil && d.isMap(n, "mitigation") {
		d.checkKeys(n, "controller", "config-delay", "queue-depth", "max-deagg-len", "max-deagg-len6", "manual")
		cfg.Mitigation.Controller = d.optScalar(n, "controller")
		cfg.Mitigation.ConfigDelay = d.optDuration(n, "config-delay")
		cfg.Mitigation.QueueDepth = d.optInt(n, "queue-depth")
		cfg.Mitigation.MaxDeaggLen = d.optInt(n, "max-deagg-len")
		cfg.Mitigation.MaxDeaggLen6 = d.optInt(n, "max-deagg-len6")
		cfg.Mitigation.Manual = d.optBool(n, "manual")
	}
	if n := root.child("record"); n != nil && d.isMap(n, "record") {
		d.checkKeys(n, "path", "max-file-size", "max-file-age", "queue-depth")
		cfg.Record.Path = d.optScalar(n, "path")
		cfg.Record.MaxFileSize = int64(d.optInt(n, "max-file-size"))
		cfg.Record.MaxFileAge = d.optDuration(n, "max-file-age")
		cfg.Record.QueueDepth = d.optInt(n, "queue-depth")
	}
	if n := root.child("tuning"); n != nil && d.isMap(n, "tuning") {
		d.checkKeys(n, "source-queue", "dedup-ttl", "alert-ttl", "alert-dedup-max", "max-mitigation-retries")
		cfg.Tuning.SourceQueue = d.optInt(n, "source-queue")
		cfg.Tuning.DedupTTL = d.optDuration(n, "dedup-ttl")
		cfg.Tuning.AlertTTL = d.optDuration(n, "alert-ttl")
		cfg.Tuning.AlertDedupMax = d.optInt(n, "alert-dedup-max")
		cfg.Tuning.MaxMitigationRetries = d.optInt(n, "max-mitigation-retries")
	}
	if n := root.child("control"); n != nil && d.isMap(n, "control") {
		d.checkKeys(n, "listen", "admin-token", "state-file")
		cfg.Control.Listen = d.optScalar(n, "listen")
		cfg.Control.AdminToken = d.optScalar(n, "admin-token")
		cfg.Control.StateFile = d.optScalar(n, "state-file")
	}
	if n := root.child("rib"); n != nil && d.isMap(n, "rib") {
		d.checkKeys(n, "enabled", "path")
		cfg.RIB.Enabled = d.optBool(n, "enabled")
		cfg.RIB.Path = d.optScalar(n, "path")
		if cfg.RIB.Path != "" {
			cfg.RIB.Enabled = true
		}
	}
	if n := root.child("rpki"); n != nil && d.isMap(n, "rpki") {
		d.checkKeys(n, "path", "url", "refresh")
		cfg.RPKI.Path = d.optScalar(n, "path")
		cfg.RPKI.URL = d.optScalar(n, "url")
		cfg.RPKI.Refresh = d.optDuration(n, "refresh")
		if cfg.RPKI.Path != "" && cfg.RPKI.URL != "" {
			d.fail(n.line, "rpki needs path or url, not both")
		}
		if cfg.RPKI.Refresh != 0 && cfg.RPKI.URL == "" {
			d.fail(n.line, "rpki refresh needs a url source")
		}
	}
	if n := root.child("asnames"); n != nil && d.isMap(n, "asnames") {
		d.checkKeys(n, "path")
		cfg.ASNames.Path = d.optScalar(n, "path")
	}

	// Cross-field validation that has no better position than the list
	// items themselves.
	if d.err == nil {
		seen := map[string]bool{}
		for _, item := range d.scalarList(root.child("prefixes")) {
			p, _ := prefix.Parse(item.scalar)
			key := p.String()
			if seen[key] {
				d.fail(item.line, "duplicate prefix %q", item.scalar)
			}
			seen[key] = true
		}
		if len(cfg.Prefixes) > 0 && len(cfg.Origins) == 0 {
			d.fail(root.line, "missing required key \"origins\"")
		}
		tnames := map[string]bool{}
		if n := root.child("tenants"); n != nil && n.kind == yList {
			for i, item := range n.items {
				t := &cfg.Tenants[i]
				if err := t.validate(); err != nil {
					d.fail(item.line, "%v", err)
				}
				if tnames[t.Name] {
					d.fail(item.line, "duplicate tenant name %q", t.Name)
				}
				tnames[t.Name] = true
			}
		}
		names := map[string]bool{}
		if n := root.child("sources"); n != nil && n.kind == yList {
			for i, item := range n.items {
				name := cfg.Sources[i].Name
				if name == "" {
					continue
				}
				if names[name] {
					d.fail(item.line, "duplicate source name %q", name)
				}
				names[name] = true
			}
		}
	}
	return cfg
}

// decodeUpstreams decodes an origin→neighbors mapping (nil node → nil map).
func (d *configDecoder) decodeUpstreams(n *yamlNode) map[uint32][]uint32 {
	if n == nil {
		return nil
	}
	if n.kind != yMap {
		d.fail(n.line, "upstreams must map origin ASN to a list of neighbor ASNs")
		return nil
	}
	out := make(map[uint32][]uint32, len(n.keys))
	for _, k := range n.keys {
		origin, err := strconv.ParseUint(k, 10, 32)
		if err != nil {
			d.fail(n.vals[k].line, "bad origin ASN %q", k)
			continue
		}
		var ups []uint32
		for _, item := range d.scalarList(n.vals[k]) {
			ups = append(ups, d.asASN(item))
		}
		out[uint32(origin)] = ups
	}
	return out
}

// decodeTenant decodes one tenants: list item.
func (d *configDecoder) decodeTenant(n *yamlNode) TenantSpec {
	spec := TenantSpec{}
	if n.kind != yMap {
		d.fail(n.line, "each tenant must be a mapping with a \"name\"")
		return spec
	}
	d.checkKeys(n, "name", "prefixes", "origins", "upstreams", "token", "limits")
	spec.Name = d.optScalar(n, "name")
	for _, item := range d.scalarList(n.child("prefixes")) {
		if _, err := prefix.Parse(item.scalar); err != nil {
			d.fail(item.line, "bad prefix %q: %v", item.scalar, err)
		}
		spec.Prefixes = append(spec.Prefixes, item.scalar)
	}
	for _, item := range d.scalarList(n.child("origins")) {
		spec.Origins = append(spec.Origins, d.asASN(item))
	}
	spec.Upstreams = d.decodeUpstreams(n.child("upstreams"))
	spec.Token = d.optScalar(n, "token")
	if l := n.child("limits"); l != nil && d.isMap(l, "limits") {
		d.checkKeys(l, "max-events-per-sec", "mitigation-rate-per-min", "stream-buffer")
		spec.Limits.MaxEventsPerSec = d.optInt(l, "max-events-per-sec")
		spec.Limits.MitigationRatePerMin = d.optInt(l, "mitigation-rate-per-min")
		spec.Limits.StreamBuffer = d.optInt(l, "stream-buffer")
	}
	return spec
}

func (d *configDecoder) decodeSource(n *yamlNode) SourceSpec {
	spec := SourceSpec{}
	if n.kind != yMap {
		d.fail(n.line, "each source must be a mapping with a \"type\"")
		return spec
	}
	d.checkKeys(n, "type", "name", "url", "addr", "path", "interval", "lgs", "speed", "max-events-per-sec")
	spec.Type = d.optScalar(n, "type")
	spec.Name = d.optScalar(n, "name")
	spec.URL = d.optScalar(n, "url")
	spec.Addr = d.optScalar(n, "addr")
	spec.Path = d.optScalar(n, "path")
	spec.Interval = d.optDuration(n, "interval")
	spec.Speed = d.optFloat(n, "speed")
	spec.MaxEventsPerSec = d.optInt(n, "max-events-per-sec")
	if lg := n.child("lgs"); lg != nil {
		for _, item := range d.scalarList(lg) {
			spec.LGs = append(spec.LGs, item.scalar)
		}
	}
	if err := spec.validate(); err != nil {
		d.fail(n.line, "%v", err)
	}
	return spec
}

func (d *configDecoder) isMap(n *yamlNode, what string) bool {
	if n.kind != yMap {
		d.fail(n.line, "%s must be a mapping", what)
		return false
	}
	return true
}

// scalarList returns a node's items as scalars, accepting both block and
// inline sequences (and a bare scalar as a one-element list).
func (d *configDecoder) scalarList(n *yamlNode) []*yamlNode {
	if n == nil {
		return nil
	}
	switch n.kind {
	case yScalar:
		if n.scalar == "" {
			return nil
		}
		return []*yamlNode{n}
	case yList:
		out := make([]*yamlNode, 0, len(n.items))
		for _, item := range n.items {
			if item.kind != yScalar {
				d.fail(item.line, "expected a scalar list item")
				continue
			}
			out = append(out, item)
		}
		return out
	default:
		d.fail(n.line, "expected a sequence")
		return nil
	}
}

func (d *configDecoder) asASN(n *yamlNode) uint32 {
	v, err := strconv.ParseUint(n.scalar, 10, 32)
	if err != nil {
		d.fail(n.line, "bad ASN %q", n.scalar)
		return 0
	}
	return uint32(v)
}

func (d *configDecoder) optScalar(n *yamlNode, key string) string {
	c := n.child(key)
	if c == nil {
		return ""
	}
	if c.kind != yScalar {
		d.fail(c.line, "%s must be a scalar", key)
		return ""
	}
	return c.scalar
}

func (d *configDecoder) optInt(n *yamlNode, key string) int {
	c := n.child(key)
	if c == nil {
		return 0
	}
	v, err := strconv.Atoi(c.scalar)
	if err != nil || c.kind != yScalar {
		d.fail(c.line, "%s must be an integer", key)
		return 0
	}
	return v
}

func (d *configDecoder) optFloat(n *yamlNode, key string) float64 {
	c := n.child(key)
	if c == nil {
		return 0
	}
	v, err := strconv.ParseFloat(c.scalar, 64)
	if err != nil || c.kind != yScalar {
		d.fail(c.line, "%s must be a number", key)
		return 0
	}
	return v
}

func (d *configDecoder) optBool(n *yamlNode, key string) bool {
	c := n.child(key)
	if c == nil {
		return false
	}
	switch c.scalar {
	case "true":
		return true
	case "false":
		return false
	}
	d.fail(c.line, "%s must be true or false", key)
	return false
}

func (d *configDecoder) optDuration(n *yamlNode, key string) Duration {
	c := n.child(key)
	if c == nil {
		return 0
	}
	v, err := time.ParseDuration(c.scalar)
	if err != nil || c.kind != yScalar {
		d.fail(c.line, "%s must be a duration like \"15s\"", key)
		return 0
	}
	return Duration(v)
}
