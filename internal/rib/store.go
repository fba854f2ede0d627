package rib

import (
	"math/bits"
	"slices"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// The candidate store. Each resident prefix maps, through the table's
// trie, to a state: its best candidate inline and the others in an
// overflow block. A candidate names its vantage point and where its AS
// path sits in the path arena. States, overflow blocks and paths live in
// arenas of chunks that hold no Go pointers, so installing a route
// allocates nothing beyond an occasional chunk, and the collector marks
// the chunks without scanning them; only the trie holds pointers.

// cand is one candidate route: the vantage point that exported it and
// its AS path, n ASNs from path slot off.
type cand struct {
	vp  bgp.ASN
	off uint32
	n   uint32
}

// better is route.Better for two peer routes: the shorter path wins, then
// the lower vantage point.
func better(a, b cand) bool {
	if a.n != b.n {
		return a.n < b.n
	}
	return a.vp < b.vp
}

// state is one resident prefix. best is its selected candidate; the
// other n sit in the overflow block at slot more, whose capacity is the
// power of two at or above n: a block doubles when it fills and halves
// when its candidates fit half of it.
type state struct {
	best cand
	more uint32
	n    uint32
}

// change is one prefix's best-route transition as the origin and mask
// indices see it: whether there was and is a best route, and their
// origins. The zero change moves nothing.
type change struct {
	had, has bool
	old, new bgp.ASN
}

// Slot storage. An arena hands out slots, runs of elements inside one
// chunk, each named by its first element: chunk index << chunkBits |
// offset. Chunks grow geometrically from minChunk to maxChunk elements; a
// slot longer than maxChunk gets a chunk of its own. A released slot goes
// on its size class's free list, threaded through its first element, and
// alloc takes from that list first: storage stays at its high-water mark
// and is reused, never returned to the heap.
const (
	chunkBits = 12
	maxChunk  = 1 << chunkBits
	minChunk  = 256
	// Slots of up to exactClasses elements are sized exactly; longer ones
	// round up to a power of two.
	exactClasses = 32
	numClasses   = exactClasses + 1 + 32 - 5
)

// slotClass returns the capacity of the slot that holds n > 0 elements,
// and its size class.
func slotClass(n int) (capacity, class int) {
	if n <= exactClasses {
		return n, n
	}
	b := bits.Len(uint(n - 1))
	return 1 << b, exactClasses + b - 5
}

type arena[T any] struct {
	chunks [][]T
	used   int // elements carved from the last chunk
	size   int // elements in all chunks
	// free holds, per class, the first free slot plus one (0: none).
	free [numClasses]uint32
	// link returns the word of a free slot's first element that holds the
	// next free slot plus one.
	link func(*T) *uint32
}

// at returns the elements from slot s to the end of its chunk.
func (a *arena[T]) at(s uint32) []T { return a.chunks[s>>chunkBits][s&(maxChunk-1):] }

// alloc returns a slot for n > 0 elements, its contents undefined.
func (a *arena[T]) alloc(n int) uint32 {
	c, class := slotClass(n)
	if head := a.free[class]; head != 0 {
		a.free[class] = *a.link(&a.at(head - 1)[0])
		return head - 1
	}
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])-a.used < c {
		size := max(min(max(a.size, minChunk), maxChunk), c)
		if len(a.chunks) == cap(a.chunks) {
			a.chunks = slices.Grow(a.chunks, max(len(a.chunks), 16))
		}
		a.chunks = append(a.chunks, make([]T, size))
		a.size += size
		a.used = 0
		last++
	}
	s := uint32(last)<<chunkBits | uint32(a.used)
	a.used += c
	return s
}

// release puts slot s, allocated for n elements, on its class's free list.
func (a *arena[T]) release(s uint32, n int) {
	_, class := slotClass(n)
	*a.link(&a.at(s)[0]) = a.free[class]
	a.free[class] = s + 1
}

// store is a table's candidate storage: the trie from prefix to state
// and the three arenas.
type store struct {
	prefixes *prefix.Trie[uint32]
	states   arena[state]
	cands    arena[cand]
	paths    arena[bgp.ASN]
	routes   int
}

func newStore() store {
	return store{
		prefixes: prefix.NewTrie[uint32](),
		states:   arena[state]{link: func(st *state) *uint32 { return &st.more }},
		cands:    arena[cand]{link: func(c *cand) *uint32 { return &c.off }},
		paths:    arena[bgp.ASN]{link: func(a *bgp.ASN) *uint32 { return (*uint32)(a) }},
	}
}

func (s *store) state(i uint32) *state { return &s.states.at(i)[0] }

// path returns c's AS path, in table storage.
func (s *store) path(c cand) []bgp.ASN { return s.paths.at(c.off)[:c.n:c.n] }

func (s *store) origin(c cand) bgp.ASN { return s.paths.at(c.off)[c.n-1] }

// more returns st's overflow candidates, in table storage.
func (s *store) more(st *state) []cand {
	if st.n == 0 {
		return nil
	}
	return s.cands.at(st.more)[:st.n]
}

// newCand stores a copy of path and returns the candidate (vp, path).
func (s *store) newCand(vp bgp.ASN, path []bgp.ASN) cand {
	off := s.paths.alloc(len(path))
	copy(s.paths.at(off), path)
	return cand{vp: vp, off: off, n: uint32(len(path))}
}

// setPath replaces c's path with a copy of path.
func (s *store) setPath(c *cand, path []bgp.ASN) {
	s.paths.release(c.off, int(c.n))
	*c = s.newCand(c.vp, path)
}

// addMore appends c to st's overflow candidates.
func (s *store) addMore(st *state, c cand) {
	n := int(st.n)
	switch {
	case n == 0:
		st.more = s.cands.alloc(1)
	case n&(n-1) == 0: // the block is full
		b := s.cands.alloc(2 * n)
		copy(s.cands.at(b), s.more(st))
		s.cands.release(st.more, n)
		st.more = b
	}
	s.cands.at(st.more)[n] = c
	st.n++
}

// removeMore drops st's overflow candidate i, moving the last one into
// its place.
func (s *store) removeMore(st *state, i int) {
	more := s.more(st)
	n := len(more) - 1
	more[i] = more[n]
	st.n--
	switch {
	case n == 0:
		s.cands.release(st.more, 1)
	case n&(n-1) == 0: // the candidates fit a block half the size
		b := s.cands.alloc(n)
		copy(s.cands.at(b), more[:n])
		s.cands.release(st.more, 2*n)
		st.more = b
	}
}

// bestOf returns the index of the best of cands, which is not empty.
func bestOf(cands []cand) int {
	j := 0
	for i := 1; i < len(cands); i++ {
		if better(cands[i], cands[j]) {
			j = i
		}
	}
	return j
}

// update installs or replaces vp's candidate for p, with a copy of path,
// and reselects. The best route has changed unless it is from the same
// vantage point with an equal path, so a duplicate announcement changes
// nothing.
//
// Selection is incremental and exact, as in route.Table: a route that
// beats the best becomes the best, the best replaced by a route at least
// as good stays on top, and only the best replaced by a worse route
// rescans.
func (s *store) update(p prefix.Prefix, vp bgp.ASN, path []bgp.ASN) change {
	ref, added := s.prefixes.Ref(p)
	if added {
		*ref = s.states.alloc(1)
		*s.state(*ref) = state{best: s.newCand(vp, path)}
		s.routes++
		return change{has: true, new: path[len(path)-1]}
	}
	st := s.state(*ref)
	c := change{had: true, has: true, old: s.origin(st.best)}
	if st.best.vp == vp {
		if slices.Equal(s.path(st.best), path) {
			return change{}
		}
		worse := len(path) > int(st.best.n)
		s.setPath(&st.best, path)
		if more := s.more(st); worse && len(more) > 0 {
			if j := bestOf(more); better(more[j], st.best) {
				st.best, more[j] = more[j], st.best
			}
		}
		c.new = s.origin(st.best)
		return c
	}
	more := s.more(st)
	i := slices.IndexFunc(more, func(c cand) bool { return c.vp == vp })
	if i >= 0 {
		if slices.Equal(s.path(more[i]), path) {
			return change{}
		}
		s.setPath(&more[i], path)
		if !better(more[i], st.best) {
			return change{}
		}
		st.best, more[i] = more[i], st.best
	} else {
		nc := s.newCand(vp, path)
		s.routes++
		if !better(nc, st.best) {
			s.addMore(st, nc)
			return change{}
		}
		s.addMore(st, st.best)
		st.best = nc
	}
	c.new = s.origin(st.best)
	return c
}

// withdraw removes vp's candidate for p and reselects; a prefix that
// loses its last candidate leaves the trie.
func (s *store) withdraw(p prefix.Prefix, vp bgp.ASN) change {
	ref := s.prefixes.Ptr(p)
	if ref == nil {
		return change{}
	}
	st := s.state(*ref)
	if st.best.vp != vp {
		more := s.more(st)
		i := slices.IndexFunc(more, func(c cand) bool { return c.vp == vp })
		if i < 0 {
			return change{}
		}
		s.paths.release(more[i].off, int(more[i].n))
		s.removeMore(st, i)
		s.routes--
		return change{}
	}
	c := change{had: true, old: s.origin(st.best)}
	s.paths.release(st.best.off, int(st.best.n))
	s.routes--
	if st.n == 0 {
		s.states.release(*ref, 1)
		s.prefixes.Delete(p)
		return c
	}
	more := s.more(st)
	j := bestOf(more)
	st.best = more[j]
	s.removeMore(st, j)
	c.has, c.new = true, s.origin(st.best)
	return c
}
