package rib

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
)

// LoadStats describes one bootstrap load.
type LoadStats struct {
	// Peers is the size of the snapshot's PEER_INDEX_TABLE.
	Peers int
	// Entries counts RIB entries (prefixes); Routes counts per-peer routes.
	Entries  int
	Routes   int
	V4Routes int
	V6Routes int
	// Skipped counts routes without a usable AS path.
	Skipped int
	Elapsed time.Duration
}

func (s LoadStats) String() string {
	return fmt.Sprintf("%d routes (%d v4, %d v6) over %d prefixes from %d peers in %v",
		s.Routes, s.V4Routes, s.V6Routes, s.Entries, s.Peers, s.Elapsed.Round(time.Millisecond))
}

// Load streams a TABLE_DUMP_V2 snapshot into t: one pass, no buffering of
// the dump, so a full-table file (~1M v4 + ~220k v6 routes) bootstraps in
// one read without holding the raw bytes resident. The snapshot's
// PEER_INDEX_TABLE must precede its RIB entries (as RFC 6396 requires);
// each route's vantage point is resolved through it, never inferred from
// the AS path. BGP4MP records interleaved in the stream are ignored.
//
// RIB entries are walked in the reader's buffer and only their AS paths
// decoded, into one scratch slice; each route's path is then copied once,
// into the table's path arena. An entry whose routes do not
// all decode changes nothing, as if it had been decoded whole. The origin
// index takes the load's changes in one fold when the load ends, with or
// without an error; until then OriginCounts and Snapshot's Origins do not
// show them.
func Load(r io.Reader, t *Table) (LoadStats, error) {
	start := time.Now()
	mr := mrt.NewReader(r)
	l := loader{t: t}
	defer func() {
		t.mu.Lock()
		l.origins.fold(t)
		t.mu.Unlock()
	}()
	for {
		rec, ent, err := mr.Scan()
		if err == io.EOF {
			break
		}
		if err == nil {
			if ent == nil {
				l.peers.Observe(rec)
				continue
			}
			err = l.entry(ent)
		}
		if err != nil {
			return l.st, err
		}
	}
	l.st.Peers = l.peers.Peers()
	l.st.Elapsed = time.Since(start)
	return l.st, nil
}

// loader is one Load's state. paths holds the current entry's AS paths
// back to back; routes index into it. origins logs the load's origin-index
// changes until Load folds them.
type loader struct {
	t       *Table
	peers   mrt.PeerResolver
	st      LoadStats
	paths   []bgp.ASN
	routes  []entryRoute
	origins originLog
}

// entryRoute is one decoded route of a RIB entry: its peer index and
// where its AS path sits in loader.paths.
type entryRoute struct {
	peer     uint16
	from, to int
}

// entry decodes every route of one RIB entry, then installs them under
// one write lock. Bootstrap inserts are not table movement.
func (l *loader) entry(ent *mrt.RIBScan) error {
	l.paths, l.routes = l.paths[:0], l.routes[:0]
	for ent.More() {
		rt, err := ent.Next()
		if err != nil {
			return err
		}
		from := len(l.paths)
		if l.paths, _, err = bgp.AppendASPath(rt.Attrs, bgp.DefaultOptions, l.paths); err != nil {
			return fmt.Errorf("mrt: RIB attributes: %w", err)
		}
		l.routes = append(l.routes, entryRoute{peer: rt.PeerIndex, from: from, to: len(l.paths)})
	}
	l.st.Entries++
	p := ent.Prefix
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	for _, rt := range l.routes {
		peer, err := l.peers.Peer(rt.peer)
		if err != nil {
			return fmt.Errorf("rib: entry %s: %w", p, err)
		}
		if rt.from == rt.to {
			l.st.Skipped++
			continue
		}
		if path := l.paths[rt.from:rt.to]; ribRoute(path, peer.AS) {
			l.t.noteBestChange(p, l.t.update(p, peer.AS, path), &l.origins)
		}
		l.st.Routes++
		if p.Is6() {
			l.st.V6Routes++
		} else {
			l.st.V4Routes++
		}
	}
	return nil
}

// LoadFile streams the MRT snapshot at path into t.
func LoadFile(path string, t *Table) (LoadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return LoadStats{}, err
	}
	defer f.Close()
	return Load(bufio.NewReaderSize(f, 1<<20), t)
}
