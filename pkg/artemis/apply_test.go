package artemis

import (
	"context"
	"path/filepath"
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

// TestSourceOptionChangeReaddsSource: on a running node, a live change to
// only a source's max-events-per-sec or speed re-adds that source with
// the new value, like a change to any other field of its spec.
func TestSourceOptionChangeReaddsSource(t *testing.T) {
	node, err := New(&Config{
		Prefixes: []string{"10.0.0.0/23"},
		Origins:  []uint32{61000},
		Sources: []SourceSpec{{
			Type: SourceReplay, Name: "rp", Path: filepath.Join(t.TempDir(), "cap-*.evlog"),
			Speed: 1, MaxEventsPerSec: 100,
		}},
	}, WithLogf(func(string, ...any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Drain()
	go node.Run(context.Background())
	entry := func() sourceEntry {
		node.mu.Lock()
		defer node.mu.Unlock()
		return node.sources["rp"]
	}
	for deadline := time.Now().Add(5 * time.Second); entry().id < 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("source never attached")
		}
	}

	for _, tc := range []struct {
		name string
		edit func(*SourceSpec)
	}{
		{"max-events-per-sec", func(s *SourceSpec) { s.MaxEventsPerSec = 5000 }},
		{"speed", func(s *SourceSpec) { s.Speed = 4 }},
	} {
		before := entry()
		next := node.Config()
		tc.edit(&next.Sources[0])
		if err := node.ReplaceConfig(next); err != nil {
			t.Fatal(err)
		}
		after := entry()
		if after.id == before.id {
			t.Errorf("%s change kept the running source", tc.name)
		}
		if !sourceSpecEqual(after.spec, next.Sources[0]) {
			t.Errorf("%s change: running spec %+v, want %+v", tc.name, after.spec, next.Sources[0])
		}
	}
}
