package prefix

import (
	"math/rand"
	"testing"
)

// oracle is the naive reference the trie is checked against: a flat set of
// prefixes with linear-scan longest-prefix match.
type oracle struct {
	set map[Prefix]int
}

func newOracle() *oracle { return &oracle{set: map[Prefix]int{}} }

func (o *oracle) insert(p Prefix, v int) bool {
	_, had := o.set[p]
	o.set[p] = v
	return !had
}

func (o *oracle) delete(p Prefix) bool {
	_, had := o.set[p]
	delete(o.set, p)
	return had
}

func (o *oracle) longestMatch(a Addr) (Prefix, int, bool) {
	best, bestV, ok := Prefix{}, 0, false
	for p, v := range o.set {
		if p.ContainsAddr(a) && (!ok || p.Bits() > best.Bits()) {
			best, bestV, ok = p, v, true
		}
	}
	return best, bestV, ok
}

func (o *oracle) longestMatchPrefix(q Prefix) (Prefix, int, bool) {
	best, bestV, ok := Prefix{}, 0, false
	for p, v := range o.set {
		if p.Contains(q) && (!ok || p.Bits() > best.Bits()) {
			best, bestV, ok = p, v, true
		}
	}
	return best, bestV, ok
}

// randPrefix draws a mixed-family prefix from a deliberately collision-happy
// space (few distinct address bits, all lengths) so inserts, replacements,
// deletes, and nested prefixes all occur.
func randPrefix(rng *rand.Rand) Prefix {
	if rng.Intn(2) == 0 {
		return New(AddrFrom4(rng.Uint32()&0xfff00000), rng.Intn(13))
	}
	hi := uint64(0x20010db800000000) | uint64(rng.Intn(1<<12))<<20
	lo := uint64(rng.Intn(4)) << 62
	bits := rng.Intn(67) // 0..66 straddles the hi/lo word boundary
	return New(AddrFrom16(hi, lo), bits)
}

func randAddr(rng *rand.Rand) Addr {
	if rng.Intn(2) == 0 {
		return AddrFrom4(rng.Uint32() & 0xffff0000)
	}
	return AddrFrom16(uint64(0x20010db800000000)|uint64(rng.Intn(1<<12))<<20, uint64(rng.Uint32())<<32)
}

// TestTrieMatchesOracleDualStack drives randomized insert/ref/delete/lookup
// interleavings over mixed v4+v6 prefix sets and checks every operation's
// result — and, periodically, full LPM agreement — against the linear-scan
// oracle; deleting everything at the end must prune both trees bare. This
// is the property wall around the dual-stack generalization: any
// divergence between the 128-bit radix walk and first-principles
// containment fails here.
func TestTrieMatchesOracleDualStack(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTrie[int]()
		ref := newOracle()
		for op := 0; op < 4000; op++ {
			switch rng.Intn(12) {
			case 0, 1, 2, 3: // insert
				p := randPrefix(rng)
				if got, want := tr.Insert(p, op), ref.insert(p, op); got != want {
					t.Fatalf("seed %d op %d: Insert(%s) added=%v, oracle %v", seed, op, p, got, want)
				}
			case 4, 5: // delete
				p := randPrefix(rng)
				if got, want := tr.Delete(p), ref.delete(p); got != want {
					t.Fatalf("seed %d op %d: Delete(%s) = %v, oracle %v", seed, op, p, got, want)
				}
			case 6, 7: // address LPM
				a := randAddr(rng)
				gotP, gotV, gotOK := tr.LongestMatch(a)
				wantP, wantV, wantOK := ref.longestMatch(a)
				if gotOK != wantOK || (gotOK && (gotP != wantP || gotV != wantV)) {
					t.Fatalf("seed %d op %d: LongestMatch(%s) = %s,%d,%v; oracle %s,%d,%v",
						seed, op, a, gotP, gotV, gotOK, wantP, wantV, wantOK)
				}
			case 8: // prefix LPM
				q := randPrefix(rng)
				gotP, gotV, gotOK := tr.LongestMatchPrefix(q)
				wantP, wantV, wantOK := ref.longestMatchPrefix(q)
				if gotOK != wantOK || (gotOK && (gotP != wantP || gotV != wantV)) {
					t.Fatalf("seed %d op %d: LongestMatchPrefix(%s) = %s,%d,%v; oracle %s,%d,%v",
						seed, op, q, gotP, gotV, gotOK, wantP, wantV, wantOK)
				}
			case 9: // exact get
				p := randPrefix(rng)
				gotV, gotOK := tr.Get(p)
				wantV, wantOK := ref.set[p]
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					t.Fatalf("seed %d op %d: Get(%s) = %d,%v; oracle %d,%v", seed, op, p, gotV, gotOK, wantV, wantOK)
				}
			case 10: // find-or-create, then write through the pointer
				p := randPrefix(rng)
				v, added := tr.Ref(p)
				wantV, had := ref.set[p]
				if added == had || *v != wantV {
					t.Fatalf("seed %d op %d: Ref(%s) = %d,added=%v; oracle %d,present=%v", seed, op, p, *v, added, wantV, had)
				}
				*v = op
				ref.set[p] = op
			case 11: // exact pointer lookup
				p := randPrefix(rng)
				v := tr.Ptr(p)
				wantV, had := ref.set[p]
				if (v != nil) != had || (had && *v != wantV) {
					t.Fatalf("seed %d op %d: Ptr(%s) = %v; oracle %d,%v", seed, op, p, v, wantV, had)
				}
			}
			if tr.Len() != len(ref.set) {
				t.Fatalf("seed %d op %d: Len = %d, oracle %d", seed, op, tr.Len(), len(ref.set))
			}
		}
		// Final sweep: the walk enumerates exactly the oracle's set.
		walked := map[Prefix]int{}
		tr.Walk(func(p Prefix, v int) bool {
			walked[p] = v
			return true
		})
		if len(walked) != len(ref.set) {
			t.Fatalf("seed %d: Walk saw %d prefixes, oracle has %d", seed, len(walked), len(ref.set))
		}
		for p, v := range ref.set {
			if walked[p] != v {
				t.Fatalf("seed %d: Walk missed %s=%d", seed, p, v)
			}
		}
		for p := range ref.set {
			if !tr.Delete(p) {
				t.Fatalf("seed %d: Delete(%s) missed a stored prefix", seed, p)
			}
		}
		if tr.Len() != 0 || tr.root4.child != [2]*node[int]{} || tr.root6.child != [2]*node[int]{} {
			t.Fatalf("seed %d: trie not pruned bare after deleting everything (Len %d)", seed, tr.Len())
		}
	}
}

// TestTrieCoveredByMatchesOracleDualStack checks subtree enumeration (the
// squat-detection path) against the oracle.
func TestTrieCoveredByMatchesOracleDualStack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTrie[int]()
	ref := newOracle()
	for i := 0; i < 2000; i++ {
		p := randPrefix(rng)
		tr.Insert(p, i)
		ref.insert(p, i)
	}
	for i := 0; i < 500; i++ {
		q := randPrefix(rng)
		got := map[Prefix]bool{}
		tr.CoveredBy(q, func(p Prefix, _ int) bool {
			got[p] = true
			return true
		})
		want := map[Prefix]bool{}
		for p := range ref.set {
			if q.Contains(p) {
				want[p] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("CoveredBy(%s): %d prefixes, oracle %d", q, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("CoveredBy(%s) missed %s", q, p)
			}
		}
	}
}

// TestTrieDeleteAllocs: Delete prunes without a path buffer, so a route
// table that deletes a node on every last-candidate withdraw allocates
// nothing for it. Every measured call deletes a stored /24 and /48 whose
// chains are not shared below the /16 and /32, so each one prunes.
func TestTrieDeleteAllocs(t *testing.T) {
	const runs = 100
	tr := NewTrie[int]()
	v4 := func(i int) Prefix { return New(AddrFrom4(0xc0000000|uint32(i)<<8), 24) }
	v6 := func(i int) Prefix { return New(AddrFrom16(0x20010db800000000|uint64(i)<<16, 0), 48) }
	for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
		tr.Insert(v4(i), i)
		tr.Insert(v6(i), i)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !tr.Delete(v4(i)) || !tr.Delete(v6(i)) || tr.Ptr(v4(i)) != nil {
			t.Fatalf("Delete of stored prefix %d failed", i)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Delete allocates %.1f times per call, want 0", allocs)
	}
	if tr.Len() != 0 || tr.root4.child != [2]*node[int]{} || tr.root6.child != [2]*node[int]{} {
		t.Fatalf("trie not pruned bare (Len %d)", tr.Len())
	}
}

// reachable counts the nodes of n's tree.
func reachable[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return 1 + reachable(n.child[0]) + reachable(n.child[1])
}

// TestTrieChurnReusesNodes: under 10k random insert/delete rounds over
// nested v4 and v6 prefixes, every node the trie has carved is either in
// one of its trees or on its free list, and it carves a new one only when
// the trees need more nodes than ever before: its node count stays at the
// high-water mark of nodes in use.
func TestTrieChurnReusesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrie[int]()
	var stored []Prefix
	high := 0
	for round := 0; round < 10_000; round++ {
		if len(stored) == 0 || rng.Intn(2) == 0 {
			p := randPrefix(rng)
			if tr.Insert(p, round) {
				stored = append(stored, p)
			}
		} else {
			i := rng.Intn(len(stored))
			if !tr.Delete(stored[i]) {
				t.Fatalf("round %d: stored %s not deleted", round, stored[i])
			}
			stored[i] = stored[len(stored)-1]
			stored = stored[:len(stored)-1]
		}
		used := reachable(tr.root4) + reachable(tr.root6)
		free := 0
		for n := tr.free; n != nil; n = n.child[0] {
			if n.set || n.child[1] != nil {
				t.Fatalf("round %d: free node holds a value or a child", round)
			}
			free++
		}
		high = max(high, used)
		if used+free != tr.nodes || tr.nodes != high {
			t.Fatalf("round %d: %d nodes in use + %d free, %d carved, high-water mark %d", round, used, free, tr.nodes, high)
		}
	}
	if high < 100 {
		t.Fatalf("churn too small to show reuse: high-water mark %d nodes", high)
	}
}
