package ingest

import (
	"bufio"
	"io"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/feeds/bgpmon"
	"artemis/internal/feeds/dumps"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/ris"
)

// maxRecvBatch caps how many buffered stream events are coalesced into
// one batch when a feed runs hot — the same bound the daemon's old pump
// loop used, and the one ris.Conn applies.
const maxRecvBatch = 256

// FilterFunc supplies a subscription filter. Dialers call it on every
// (re)dial, so a provider backed by live configuration makes a reconnect
// — including a deliberate Supervisor.Bounce — pick up filter changes
// (hot-added owned prefixes) without restarting the source.
type FilterFunc func() feedtypes.Filter

// StaticFilter adapts a fixed filter to FilterFunc.
func StaticFilter(f feedtypes.Filter) FilterFunc {
	return func() feedtypes.Filter { return f }
}

// RISDialer returns a Dialer for a RIS-style websocket endpoint
// (ws://host:port/v1/ws). Its connections decode on the supervisor's
// reader goroutine: each Recv returns one message, then every further
// message already buffered whole, so a quiet feed stays low-latency and a
// busy one amortizes per-delivery cost.
func RISDialer(url string, f feedtypes.Filter) Dialer {
	return RISDialerDynamic(url, StaticFilter(f))
}

// RISDialerDynamic is RISDialer with the subscription filter resolved at
// every (re)dial. RIS filtering is server-side (the filter travels in the
// subscribe message), so filter changes take effect on the next dial;
// Supervisor.Bounce forces one.
func RISDialerDynamic(url string, f FilterFunc) Dialer {
	return DialFunc(func() (Conn, error) {
		c, err := ris.Dial(url, f())
		if err != nil {
			return nil, err
		}
		return c, nil
	})
}

// BGPmonDialerDynamic returns a Dialer for a BGPmon-style XML TCP
// stream (host:port), with the filter resolved at every (re)dial (the
// BGPmon client filters client-side, but binds the filter per
// connection). Its connections decode on the supervisor's reader
// goroutine, one message's matching events per Recv.
func BGPmonDialerDynamic(addr string, f FilterFunc) Dialer {
	return DialFunc(func() (Conn, error) {
		c, err := bgpmon.DialClient(addr, f())
		if err != nil {
			return nil, err
		}
		return c, nil
	})
}

// ReplayDialer replays pre-chunked batches as one finite source ending in
// ErrDone — deterministic ingest of captured feed data, and the workload
// generator for BenchmarkIngestFanIn. Combine with the Blocking option so
// the replay is flow-controlled instead of shed.
func ReplayDialer(batches [][]feedtypes.Event) Dialer {
	return DialFunc(func() (Conn, error) {
		return &replayConn{batches: batches}, nil
	})
}

type replayConn struct {
	batches [][]feedtypes.Event
	i       int
}

func (c *replayConn) Recv() ([]feedtypes.Event, error) {
	if c.i >= len(c.batches) {
		return nil, ErrDone
	}
	b := c.batches[c.i]
	c.i++
	return b, nil
}

func (c *replayConn) Close() error { return nil }

// MRTReplayDialer replays an MRT archive (RFC 6396 update or RIB files,
// as written by internal/feeds/dumps) as one finite source: each BGP4MP
// record becomes the events of its UPDATE, each RIB entry one
// announcement per peer route. open is called on every (re)dial, so a
// replay interrupted by Remove can be restarted. The stream ends with
// ErrDone. Combine with Blocking.
//
// The archive is read through a 64 KiB buffer (mrtReadBuffer), so a
// record costs no read of its own; a buffered read returns what one read
// of the archive got, so a pipe's records are not held back to fill it.
func MRTReplayDialer(open func() (io.ReadCloser, error), collector string) Dialer {
	return DialFunc(func() (Conn, error) {
		rc, err := open()
		if err != nil {
			return nil, err
		}
		return &mrtConn{rc: rc, r: mrt.NewReader(bufio.NewReaderSize(rc, mrtReadBuffer)), collector: collector}, nil
	})
}

const mrtReadBuffer = 64 << 10

type mrtConn struct {
	rc        io.ReadCloser
	r         *mrt.Reader
	collector string
	// peers threads the dump's PEER_INDEX_TABLE through to RIB entries so
	// each route's vantage point comes from the peer record it names, not
	// from path[0] — route-server peers do not prepend themselves, so the
	// first path hop is not necessarily the peer.
	peers mrt.PeerResolver
	// buf is the reused per-Recv batch (Conn contract: valid until the
	// next Recv).
	buf []feedtypes.Event
}

func (c *mrtConn) Recv() ([]feedtypes.Event, error) {
	for {
		rec, err := c.r.Next()
		if err == io.EOF {
			return nil, ErrDone
		}
		if err != nil {
			return nil, err
		}
		batch := c.buf[:0]
		switch m := rec.(type) {
		case *mrt.BGP4MPMessage:
			u, ok := m.Message.(*bgp.Update)
			if !ok {
				continue
			}
			at := dumps.SimTimeOf(m.Timestamp)
			for _, p := range u.Withdrawn {
				batch = append(batch, feedtypes.Event{
					Source:       dumps.SourceName,
					Collector:    c.collector,
					VantagePoint: m.PeerAS,
					Kind:         feedtypes.Withdraw,
					Prefix:       p,
					SeenAt:       at,
					EmittedAt:    at,
				})
			}
			if path, ok := u.ASPath(); ok {
				for _, p := range u.NLRI {
					batch = append(batch, feedtypes.Event{
						Source:       dumps.SourceName,
						Collector:    c.collector,
						VantagePoint: m.PeerAS,
						Kind:         feedtypes.Announce,
						Prefix:       p,
						Path:         path,
						SeenAt:       at,
						EmittedAt:    at,
					})
				}
			}
		case *mrt.PeerIndexTable:
			c.peers.Observe(m)
			continue
		case *mrt.RIBEntry:
			at := dumps.SimTimeOf(m.Timestamp)
			for _, rt := range m.Routes {
				u := &bgp.Update{Attrs: rt.Attrs}
				path, ok := u.ASPath()
				if !ok {
					continue
				}
				peer, err := c.peers.Peer(rt.PeerIndex)
				if err != nil {
					return nil, err
				}
				vp := peer.AS
				batch = append(batch, feedtypes.Event{
					Source:       dumps.SourceName,
					Collector:    c.collector,
					VantagePoint: vp,
					Kind:         feedtypes.Announce,
					Prefix:       m.Prefix,
					Path:         path,
					SeenAt:       dumps.SimTimeOf(rt.Originated),
					EmittedAt:    at,
				})
			}
		default:
			continue
		}
		c.buf = batch
		if len(batch) > 0 {
			return batch, nil
		}
	}
}

func (c *mrtConn) Close() error { return c.rc.Close() }
