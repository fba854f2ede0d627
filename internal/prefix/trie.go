package prefix

// Trie is a binary radix trie keyed by Prefix, mapping each prefix to a
// value of type V. It supports exact lookup, longest-prefix match (the BGP
// forwarding rule that makes de-aggregation an effective mitigation), and
// subtree enumeration ("all announced prefixes covered by my /22").
//
// The trie is dual-stack: one radix tree per address family, selected by
// the key's family, so v4 and v6 prefixes never shadow each other and the
// v4 path pays nothing for the wider keys. Walk order is all v4 prefixes
// (trie order) followed by all v6 prefixes.
//
// Nodes are carved from chunks the trie owns, each holding as many nodes
// as were carved before it (up to maxChunk), so a large table allocates
// per chunk, not per node, and a small one stays small. Delete threads pruned nodes onto a
// free list through child[0] and Ref takes from it first: a trie's node
// storage stays at its high-water mark and is reused, never returned to
// the heap.
//
// The trie is not safe for concurrent mutation; routers in the simulator
// are single-goroutine actors, and ARTEMIS guards its own trie with a mutex.
type Trie[V any] struct {
	root4, root6 *node[V]
	size         int
	chunk        []node[V] // the current chunk's uncarved tail
	free         *node[V]  // pruned nodes, chained through child[0]
	nodes        int       // nodes carved so far, roots included
}

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// Chunk sizes, in nodes: the first chunk holds the two roots and a few
// prefixes' worth, and maxChunk caps the growth.
const (
	minChunk = 16
	maxChunk = 1024
)

// NewTrie returns an empty trie.
func NewTrie[V any]() *Trie[V] {
	t := &Trie[V]{}
	t.root4, t.root6 = t.newNode(), t.newNode()
	return t
}

// newNode returns a zeroed node: a pruned one when there is one, else the
// next of the current chunk.
func (t *Trie[V]) newNode() *node[V] {
	if n := t.free; n != nil {
		t.free, n.child[0] = n.child[0], nil
		return n
	}
	if len(t.chunk) == 0 {
		t.chunk = make([]node[V], min(max(t.nodes, minChunk), maxChunk))
	}
	n := &t.chunk[0]
	t.chunk = t.chunk[1:]
	t.nodes++
	return n
}

func (t *Trie[V]) root(is6 bool) *node[V] {
	if is6 {
		return t.root6
	}
	return t.root4
}

// Len returns the number of prefixes stored (both families).
func (t *Trie[V]) Len() int { return t.size }

// Insert stores val under p, replacing any existing value.
// It reports whether the prefix was newly added.
func (t *Trie[V]) Insert(p Prefix, val V) bool {
	v, added := t.Ref(p)
	*v = val
	return added
}

// Ref returns a pointer to the value stored at p, first storing a zero
// value when p is absent (added reports that), so find-or-create is one
// descent. The pointer is valid until p is deleted.
func (t *Trie[V]) Ref(p Prefix) (v *V, added bool) {
	n := t.root(p.Is6())
	for i := 0; i < p.Bits(); i++ {
		b := p.bit(i)
		if n.child[b] == nil {
			n.child[b] = t.newNode()
		}
		n = n.child[b]
	}
	if !n.set {
		n.set = true
		t.size++
		added = true
	}
	return &n.val, added
}

// Get returns the value stored exactly at p.
func (t *Trie[V]) Get(p Prefix) (val V, ok bool) {
	if v := t.Ptr(p); v != nil {
		return *v, true
	}
	return val, false
}

// Ptr returns a pointer to the value stored exactly at p, or nil when p is
// absent. The pointer is valid until p is deleted.
func (t *Trie[V]) Ptr(p Prefix) *V {
	if n := t.find(p); n != nil && n.set {
		return &n.val
	}
	return nil
}

// find returns the node at p, stored or not; nil when p's path is absent.
func (t *Trie[V]) find(p Prefix) *node[V] {
	n := t.root(p.Is6())
	for i := 0; i < p.Bits() && n != nil; i++ {
		n = n.child[p.bit(i)]
	}
	return n
}

// Delete removes p. It reports whether the prefix was present.
// Empty interior nodes are pruned so long-lived tries do not leak: the
// descent remembers the last node that must stay (the root, a stored
// prefix, or a fork), the chain below it is cut off in one store, and the
// chain's nodes, each with one child at most, go on the free list.
func (t *Trie[V]) Delete(p Prefix) bool {
	n := t.root(p.Is6())
	var keep *node[V]
	keepBit := 0
	for i := 0; i < p.Bits(); i++ {
		b := p.bit(i)
		if keep == nil || n.set || n.child[b^1] != nil {
			keep, keepBit = n, b
		}
		n = n.child[b]
		if n == nil {
			return false
		}
	}
	if !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	if keep != nil && n.child[0] == nil && n.child[1] == nil {
		c := keep.child[keepBit]
		keep.child[keepBit] = nil
		for c != nil {
			next := c.child[0]
			if next == nil {
				next = c.child[1]
			}
			c.child = [2]*node[V]{t.free, nil}
			t.free, c = c, next
		}
	}
	return true
}

// LongestMatch returns the most specific stored prefix containing addr,
// with its value. ok is false when nothing in addr's family covers addr.
//
// The descent is specialized per family — a word-shift walk instead of
// per-bit index arithmetic — so the v4 hot path pays nothing for the
// 128-bit widening (BenchmarkTrieLPM).
func (t *Trie[V]) LongestMatch(addr Addr) (p Prefix, val V, ok bool) {
	bestLen, bestVal := t.descend(addr, addr.MaxBits())
	if bestLen < 0 {
		return Prefix{}, bestVal, false
	}
	return New(addr, bestLen), bestVal, true
}

// LongestMatchPrefix returns the most specific stored prefix that contains q
// (including q itself when stored).
func (t *Trie[V]) LongestMatchPrefix(q Prefix) (p Prefix, val V, ok bool) {
	bestLen, bestVal := t.descend(q.addr, q.Bits())
	if bestLen < 0 {
		return Prefix{}, bestVal, false
	}
	return New(q.Addr(), bestLen), bestVal, true
}

// descend walks at most maxDepth bits of addr's tree and returns the
// length and value of the deepest stored prefix on the path (-1 when the
// path holds none).
func (t *Trie[V]) descend(addr Addr, maxDepth int) (bestLen int, bestVal V) {
	bestLen = -1
	if !addr.is6 {
		n := t.root4
		if n.set {
			bestLen, bestVal = 0, n.val
		}
		w := uint32(addr.lo)
		for i := 0; i < maxDepth; i++ {
			n = n.child[w>>31]
			if n == nil {
				return bestLen, bestVal
			}
			w <<= 1
			if n.set {
				bestLen, bestVal = i+1, n.val
			}
		}
		return bestLen, bestVal
	}
	n := t.root6
	if n.set {
		bestLen, bestVal = 0, n.val
	}
	w := addr.hi
	for i := 0; i < maxDepth; i++ {
		if i == 64 {
			w = addr.lo
		}
		n = n.child[w>>63]
		if n == nil {
			return bestLen, bestVal
		}
		w <<= 1
		if n.set {
			bestLen, bestVal = i+1, n.val
		}
	}
	return bestLen, bestVal
}

// Supernets calls fn for every stored prefix that contains q (including q
// itself when stored), shortest first — the root-to-leaf order of q's
// descent path. Together with CoveredBy it gives a caller every stored
// prefix related to q in one direction or the other; visiting supernets
// shortest-first means the last call per interested party is its longest
// match, which is how the multi-tenant router computes a per-tenant LPM
// over one shared trie. Returning false stops the walk. The walk performs
// no allocations.
func (t *Trie[V]) Supernets(q Prefix, fn func(Prefix, V) bool) {
	n := t.root(q.Is6())
	if n.set && !fn(New(q.Addr(), 0), n.val) {
		return
	}
	for i := 0; i < q.Bits(); i++ {
		n = n.child[q.bit(i)]
		if n == nil {
			return
		}
		if n.set && !fn(New(q.Addr(), i+1), n.val) {
			return
		}
	}
}

// CoveredBy calls fn for every stored prefix contained in p (including p
// itself when stored), in trie order. Returning false stops the walk.
func (t *Trie[V]) CoveredBy(p Prefix, fn func(Prefix, V) bool) {
	walk(t.find(p), p, fn)
}

// Walk calls fn for every stored prefix: all v4 prefixes in trie order
// (address order, shorter prefixes before their sub-prefixes), then all v6
// prefixes likewise. Returning false stops.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	if !walk(t.root4, Prefix{}, fn) {
		return
	}
	walk(t.root6, Prefix{addr: Addr{is6: true}}, fn)
}

func walk[V any](n *node[V], at Prefix, fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set && !fn(at, n.val) {
		return false
	}
	if at.Bits() == at.MaxBits() {
		return true
	}
	lo, hi := at.Split()
	if !walk(n.child[0], lo, fn) {
		return false
	}
	return walk(n.child[1], hi, fn)
}
