package core

import (
	"fmt"
	"sync"
	"time"

	"artemis/internal/prefix"
	"artemis/internal/stats"
)

// TenantPolicy is one tenant's slice of a shared detection pipeline: a
// named config scope (owned prefixes, legitimate origins, neighbor and
// mitigation policy) plus the per-tenant service objects classification
// results land in. The hosted deployment shape: one pipeline, one feed
// union, N tenants — per-tenant policy is a scoped overlay on a single
// data path, not N copies of it.
type TenantPolicy struct {
	// Name identifies the tenant in alerts, metrics and the control plane.
	// A single-tenant pipeline may leave it empty.
	Name string
	// Config is the tenant's immutable config snapshot.
	Config *Config
	// Detector receives the tenant's classification results (tallies,
	// alert commit, dedup, handlers). Required.
	Detector *Detector
	// Monitor, when non-nil, is folded with the tenant's matched events.
	Monitor *Monitor
	// Runtime carries mutable per-tenant state (counters, quota buckets)
	// across table swaps. Nil builds a fresh one.
	Runtime *TenantRuntime
}

// TenantRuntime is the mutable per-tenant state that survives policy-table
// swaps: counters the metrics endpoint reads and the classification-quota
// token bucket. One TenantRuntime must be shared by every snapshot of the
// same logical tenant, or quota state would reset on each reconfiguration.
type TenantRuntime struct {
	events     stats.Counter
	quotaDrops stats.Counter

	// quota is the classification-quota token bucket, clocked by event
	// time (like the ttlset dedup windows) so it is deterministic under
	// the virtual-time experiments and needs no wall clock on the hot path.
	quota bucket
}

// Events reports how many matched events were routed to the tenant.
func (rt *TenantRuntime) Events() int64 { return rt.events.Load() }

// QuotaDrops reports how many (event, tenant) classifications the
// tenant's MaxEventsPerSecond quota shed.
func (rt *TenantRuntime) QuotaDrops() int64 { return rt.quotaDrops.Load() }

// bucket is a token bucket clocked by its caller. It starts full at the
// first time it sees and holds at most one period's allowance. Times can
// regress (event times across sources); the bucket only ever advances.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Duration
	seeded bool
}

// take spends one token from a bucket refilled at rate per period;
// periods converts elapsed time to periods (time.Duration.Seconds for a
// per-second rate, time.Duration.Minutes for a per-minute one).
func (b *bucket) take(now time.Duration, rate int, periods func(time.Duration) float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	max := float64(rate)
	if !b.seeded {
		b.seeded, b.last, b.tokens = true, now, max
	}
	if now > b.last {
		b.tokens = min(b.tokens+periods(now-b.last)*max, max)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// ownedRef locates one owned prefix: whose it is (tenant index in the
// table) and where it sits in that tenant's Config.OwnedPrefixes.
type ownedRef struct {
	tenant   int32
	ownedIdx int32
}

// tableEntry is one tenant's resolved slot in a PolicyTable.
type tableEntry struct {
	name string
	cfg  *Config
	det  *Detector
	mon  *Monitor
	rt   *TenantRuntime
}

// PolicyTable is the immutable multi-tenant routing and classification
// snapshot the pipeline routes batches under: a shared dual-stack trie
// mapping each owned prefix to the set of tenants that own it, plus the
// per-tenant (config, detector, monitor) triples. Reconfiguration swaps
// whole tables at a sink barrier (Pipeline.ReconfigureTable), so a batch
// in flight never mixes two tables.
type PolicyTable struct {
	entries []tableEntry
	trie    *prefix.Trie[[]ownedRef]
	// quotas is true when any tenant enforces MaxEventsPerSecond; the
	// router then skips the equal-prefix run sharing (quota decisions are
	// per event, not per prefix).
	quotas bool
	// onQuotaDrop, when set, is invoked on the sink goroutine with each
	// batch's per-tenant quota-drop tally (only for tenants that dropped),
	// so hosts can surface drops as events instead of silent counters.
	onQuotaDrop func(tenant string, n int64)
}

// NewPolicyTable validates and assembles a table. Tenant names must be
// unique; each tenant's config must validate on its own. Tenants may own
// overlapping or identical prefixes — the router fans matching events out
// to every owner, each classified under its own policy.
func NewPolicyTable(tenants []TenantPolicy) (*PolicyTable, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("core: policy table needs at least one tenant")
	}
	t := &PolicyTable{trie: prefix.NewTrie[[]ownedRef]()}
	seen := make(map[string]bool, len(tenants))
	for ti, tp := range tenants {
		if tp.Detector == nil {
			return nil, fmt.Errorf("core: tenant %q has no detector", tp.Name)
		}
		if tp.Config == nil {
			return nil, fmt.Errorf("core: tenant %q has no config", tp.Name)
		}
		if err := tp.Config.Validate(); err != nil {
			return nil, fmt.Errorf("core: tenant %q: %w", tp.Name, err)
		}
		if seen[tp.Name] {
			return nil, fmt.Errorf("core: duplicate tenant name %q", tp.Name)
		}
		seen[tp.Name] = true
		rt := tp.Runtime
		if rt == nil {
			rt = &TenantRuntime{}
		}
		t.entries = append(t.entries, tableEntry{
			name: tp.Name, cfg: tp.Config, det: tp.Detector, mon: tp.Monitor, rt: rt,
		})
		if tp.Config.MaxEventsPerSecond > 0 {
			t.quotas = true
		}
		for oi, o := range tp.Config.OwnedPrefixes {
			t.addOwned(o, ownedRef{tenant: int32(ti), ownedIdx: int32(oi)})
		}
	}
	return t, nil
}

// addOwned registers one owned prefix in the shared trie. A tenant listing
// the same prefix twice keeps the last config entry (the single-tenant
// router's Insert-replace semantics); distinct tenants accumulate.
func (t *PolicyTable) addOwned(o prefix.Prefix, ref ownedRef) {
	refs, _ := t.trie.Get(o)
	for i := range refs {
		if refs[i].tenant == ref.tenant {
			refs[i] = ref
			t.trie.Insert(o, refs)
			return
		}
	}
	t.trie.Insert(o, append(refs, ref))
}

// OnQuotaDrop registers fn to receive per-batch quota-drop tallies on the
// sink goroutine. fn must not block (it runs on the apply path) and must
// not submit to the same pipeline.
func (t *PolicyTable) OnQuotaDrop(fn func(tenant string, n int64)) { t.onQuotaDrop = fn }

// Tenants returns the table's tenant names, in table order.
func (t *PolicyTable) Tenants() []string {
	names := make([]string, len(t.entries))
	for i, e := range t.entries {
		names[i] = e.name
	}
	return names
}

// Runtime returns the named tenant's persistent runtime state (to carry
// into the next table snapshot, and for metrics).
func (t *PolicyTable) Runtime(name string) *TenantRuntime {
	for i := range t.entries {
		if t.entries[i].name == name {
			return t.entries[i].rt
		}
	}
	return nil
}

// single reports whether the table degenerates to the classic one-tenant
// pipeline, whose exact observable behavior (monitor folds every submitted
// event, unmatched announcements still tally per source) is preserved.
func (t *PolicyTable) single() bool { return len(t.entries) == 1 }

// UnionFilter is the feed subscription covering every tenant's owned
// space, both directions — the shared deployment subscribes once for all
// tenants and fans matched events out per tenant inside the pipeline.
func (t *PolicyTable) UnionFilter() []prefix.Prefix {
	var all []prefix.Prefix
	for _, e := range t.entries {
		all = append(all, e.cfg.OwnedPrefixes...)
	}
	return all
}
