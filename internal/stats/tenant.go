package stats

import (
	"fmt"
	"io"
)

// TenantSnapshot is one tenant's share of a hosted node's work: how many
// matched events were routed to it, how many its isolation limits shed,
// and what its policy raised. The node's /metrics endpoint renders one
// per tenant so a hosting operator can see per-customer load and verify
// that drops are counted, never silent.
type TenantSnapshot struct {
	Name string
	// Events counts matched events routed to the tenant's classification.
	Events int64
	// QuotaDrops counts classifications shed by the tenant's
	// MaxEventsPerSec fair-share quota.
	QuotaDrops int64
	// Alerts counts incidents the tenant's policy raised.
	Alerts int64
	// MitigationRateDrops counts alerts the tenant's mitigation rate
	// limit kept out of auto-mitigation.
	MitigationRateDrops int64
}

// WriteProm renders the tenant's counters with a tenant label.
func (s TenantSnapshot) WriteProm(w io.Writer) {
	l := fmt.Sprintf(`tenant="%s"`, s.Name)
	fmt.Fprintf(w, "artemis_tenant_events_total{%s} %d\n", l, s.Events)
	fmt.Fprintf(w, "artemis_tenant_quota_drops_total{%s} %d\n", l, s.QuotaDrops)
	fmt.Fprintf(w, "artemis_tenant_alerts_total{%s} %d\n", l, s.Alerts)
	fmt.Fprintf(w, "artemis_tenant_mitigation_rate_drops_total{%s} %d\n", l, s.MitigationRateDrops)
}
