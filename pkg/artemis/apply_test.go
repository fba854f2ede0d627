package artemis

import (
	"testing"
	"time"

	"artemis/internal/prefix"
)

// TestApplySwapsOnlyChangedTenants: a one-tenant edit swaps that tenant's
// config snapshot and leaves every other tenant's snapshot — and so its
// monitor index — untouched.
func TestApplySwapsOnlyChangedTenants(t *testing.T) {
	node, err := New(&Config{
		Prefixes:   []string{"10.0.0.0/23"},
		Origins:    []uint32{61000},
		Mitigation: MitigationConfig{ConfigDelay: Duration(time.Millisecond)},
		Tenants: []TenantSpec{
			{Name: "acme", Prefixes: []string{"192.0.2.0/24"}, Origins: []uint32{64500}},
			{Name: "globex", Prefixes: []string{"198.51.100.0/24"}, Origins: []uint32{64501}},
		},
	}, WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Drain()
	snapshot := func(name string) any { return node.tenants[name].svc.CurrentConfig() }
	acme, globex, def := snapshot("acme"), snapshot("globex"), snapshot(DefaultTenant)

	if err := node.SetTenantOrigins("acme", 64500, 64510); err != nil {
		t.Fatal(err)
	}
	if snapshot("acme") == acme {
		t.Error("edited tenant kept its old config snapshot")
	}
	if snapshot("globex") != globex || snapshot(DefaultTenant) != def {
		t.Error("an unchanged tenant was swapped")
	}
}

func TestSameSpace(t *testing.T) {
	a, b, c := prefix.MustParse("10.0.0.0/24"), prefix.MustParse("10.0.1.0/24"), prefix.MustParse("10.0.2.0/24")
	for _, tc := range []struct {
		x, y []prefix.Prefix
		want bool
	}{
		{[]prefix.Prefix{a, b}, []prefix.Prefix{b, a}, true},    // reordered tenants
		{[]prefix.Prefix{a, a, b}, []prefix.Prefix{a, b}, true}, // overlapping owners
		{[]prefix.Prefix{a, b}, []prefix.Prefix{a, b, c}, false},
		{[]prefix.Prefix{a, b, c}, []prefix.Prefix{a, b}, false},
		{nil, []prefix.Prefix{a}, false},
	} {
		if got := sameSpace(tc.x, tc.y); got != tc.want {
			t.Errorf("sameSpace(%v, %v) = %v, want %v", tc.x, tc.y, got, tc.want)
		}
	}
}
