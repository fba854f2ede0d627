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
func Load(r io.Reader, t *Table) (LoadStats, error) {
	start := time.Now()
	mr := mrt.NewReader(r)
	var peers mrt.PeerResolver
	var st LoadStats
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		peers.Observe(rec)
		re, ok := rec.(*mrt.RIBEntry)
		if !ok {
			continue
		}
		st.Entries++
		for i := range re.Routes {
			rt := &re.Routes[i]
			peer, err := peers.Peer(rt.PeerIndex)
			if err != nil {
				return st, fmt.Errorf("rib: entry %s: %w", re.Prefix, err)
			}
			u := bgp.Update{Attrs: rt.Attrs}
			path, ok := u.ASPath()
			if !ok || len(path) == 0 {
				st.Skipped++
				continue
			}
			// The parsed path is freshly allocated per record: hand it over
			// without cloning. Bootstrap inserts are not table movement.
			t.mu.Lock()
			t.insertLocked(re.Prefix, path, peer.AS, false, false)
			t.mu.Unlock()
			st.Routes++
			if re.Prefix.Is6() {
				st.V6Routes++
			} else {
				st.V4Routes++
			}
		}
	}
	st.Peers = peers.Peers()
	st.Elapsed = time.Since(start)
	return st, nil
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
