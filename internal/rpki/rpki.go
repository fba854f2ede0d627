// Package rpki implements RPKI route-origin validation (RFC 6811): a table
// of validated ROA payloads and the valid / invalid / not-found verdict for
// an (origin AS, prefix) pair.
//
// In ARTEMIS terms this is a fast, authoritative pre-filter: a ROA-valid
// announcement cannot be an origin hijack of the operator's space, so the
// detector rejects it before alert bookkeeping, and a ROA-invalid verdict
// rides along as evidence when an alert does fire — naming not just "wrong
// origin" but "origin the RPKI says may not announce this prefix".
package rpki

import (
	"sync/atomic"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// Validity is an RFC 6811 origin-validation verdict.
type Validity uint8

const (
	// NotFound: no ROA covers the prefix — the default for most of the
	// Internet, carrying no signal either way.
	NotFound Validity = iota
	// Valid: a covering ROA authorizes the origin at this prefix length.
	Valid
	// Invalid: at least one ROA covers the prefix but none authorizes the
	// (origin, length) pair.
	Invalid
)

func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "unknown"
	}
}

// ROA is one validated ROA payload: origin may announce prefix at lengths
// up to MaxLength.
type ROA struct {
	Prefix    prefix.Prefix
	ASN       bgp.ASN
	MaxLength int
}

// Table holds ROAs indexed for covering-prefix search. Build it once
// (AddROA during construction), then treat it as immutable: concurrent
// readers share it without locking, and a refresh swaps in a new table.
//
// The ROAs sit in one flat array, chained per prefix: the trie maps a
// prefix to its newest ROA, and each ROA names the one added before it,
// so a prefix costs no allocation of its own.
type Table struct {
	trie *prefix.Trie[uint32]
	roas []roaEntry
	// verdict counters, by Validity index; atomics so the immutable table
	// can still account for its use on concurrent hot paths.
	verdicts [3]atomic.Int64
}

// roaEntry is one ROA of a chain: its origin and maximum length, and the
// previous ROA of its prefix plus one (0 ends the chain). Chain heads in
// the trie are likewise an index plus one.
type roaEntry struct {
	asn       bgp.ASN
	next      uint32
	maxLength int
}

// NewTable returns an empty ROA table.
func NewTable() *Table {
	return &Table{trie: prefix.NewTrie[uint32]()}
}

// AddROA inserts one payload. A MaxLength below the prefix length (or
// unset, 0) defaults to the prefix length, per RFC 6482 semantics.
func (t *Table) AddROA(r ROA) {
	if r.MaxLength < r.Prefix.Bits() {
		r.MaxLength = r.Prefix.Bits()
	}
	head, _ := t.trie.Ref(r.Prefix)
	t.roas = append(t.roas, roaEntry{asn: r.ASN, next: *head, maxLength: r.MaxLength})
	*head = uint32(len(t.roas))
}

// Len returns the number of ROAs in the table.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return len(t.roas)
}

// Validate renders the RFC 6811 verdict for origin announcing p. A nil
// table validates nothing and answers NotFound.
func (t *Table) Validate(p prefix.Prefix, origin bgp.ASN) Validity {
	if t == nil {
		return NotFound
	}
	v := NotFound
	t.trie.Supernets(p, func(_ prefix.Prefix, head uint32) bool {
		for i := head; i != 0; i = t.roas[i-1].next {
			// Supernets already guarantees coverage of p's address bits.
			v = Invalid
			if roa := &t.roas[i-1]; roa.asn == origin && p.Bits() <= roa.maxLength {
				v = Valid
				return false
			}
		}
		return true
	})
	t.verdicts[v].Add(1)
	return v
}

// VerdictCounts returns how many Validate calls answered notFound / valid /
// invalid since the table was built (a refresh swap resets them with the
// table).
func (t *Table) VerdictCounts() (notFound, valid, invalid int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.verdicts[NotFound].Load(), t.verdicts[Valid].Load(), t.verdicts[Invalid].Load()
}
