package gen

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/bmp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// simEpoch is the wall-clock instant the MRT and BMP decoders map to
// event time zero (internal/feeds/dumps.SimTimeOf).
var simEpoch = time.Unix(1466000000, 0).UTC()

// eventBase is where every stream's event clock starts: far enough from
// zero that no decoder mistakes a timestamp for "unset".
const eventBase = 1000 * time.Second

// AppendRISFrames appends g as RIS-Live messages, one unmasked websocket
// text frame per prefix (the server-to-client form of RFC 6455). The JSON
// is the shape internal/feeds/ris's client decodes; the package has no
// exported encoder, so it is spelled out here.
func AppendRISFrames(dst []byte, g *Group) []byte {
	var msg [512]byte
	for _, p := range g.Prefixes {
		b := msg[:0]
		b = append(b, `{"type":"ris_message","data":{"timestamp":`...)
		b = strconv.AppendFloat(b, g.Seen.Seconds(), 'f', 6, 64)
		b = append(b, `,"seen_at":`...)
		b = strconv.AppendFloat(b, g.Seen.Seconds(), 'f', 6, 64)
		b = append(b, `,"host":"rrc00","peer_asn":`...)
		b = strconv.AppendUint(b, uint64(g.VP), 10)
		if g.Withdraw {
			b = append(b, `,"msg_type":"withdrawal","prefix":"`...)
			b = p.AppendText(b)
			b = append(b, `"}}`...)
		} else {
			b = append(b, `,"msg_type":"announcement","prefix":"`...)
			b = p.AppendText(b)
			b = append(b, `","path":[`...)
			for i, as := range g.Path {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendUint(b, uint64(as), 10)
			}
			b = append(b, `]}}`...)
		}
		dst = appendWSText(dst, b)
	}
	return dst
}

// appendWSText frames payload as one final, unmasked text frame.
func appendWSText(dst, payload []byte) []byte {
	dst = append(dst, 0x81)
	switch n := len(payload); {
	case n < 126:
		dst = append(dst, byte(n))
	case n <= 0xffff:
		dst = append(dst, 126)
		dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	default:
		dst = append(dst, 127)
		dst = binary.BigEndian.AppendUint64(dst, uint64(n))
	}
	return append(dst, payload...)
}

// Update builds the BGP UPDATE carrying g.
func Update(g *Group) *bgp.Update {
	if g.Withdraw {
		return &bgp.Update{Withdrawn: g.Prefixes}
	}
	path := make([]bgp.ASN, len(g.Path))
	for i, as := range g.Path {
		path[i] = bgp.ASN(as)
	}
	return &bgp.Update{
		Attrs: []bgp.PathAttr{
			&bgp.OriginAttr{Value: bgp.OriginIGP},
			bgp.NewASPath(path),
			&bgp.NextHopAttr{Addr: peerAddr(g.VP)},
		},
		NLRI: g.Prefixes,
	}
}

// peerAddr is the session address of vantage point vp: 10.255.x.y.
func peerAddr(vp uint32) prefix.Addr { return prefix.AddrFrom4(10<<24 | 255<<16 | vp&0xffff) }

// AppendMRT appends g as one BGP4MP_MESSAGE_AS4 record. MRT timestamps
// have one-second resolution.
func AppendMRT(dst []byte, g *Group) []byte {
	rec, err := mrt.Marshal(&mrt.BGP4MPMessage{
		Timestamp: simEpoch.Add(g.Seen),
		PeerAS:    bgp.ASN(g.VP),
		PeerIP:    peerAddr(g.VP),
		Message:   Update(g),
	})
	if err != nil {
		panic(fmt.Sprintf("gen: encode MRT record: %v", err))
	}
	return append(dst, rec...)
}

func bmpPeer(vp uint32, seen time.Duration) bmp.PerPeerHeader {
	h := bmp.PerPeerHeader{Addr: peerAddr(vp), AS: bgp.ASN(vp), BGPID: 0x0aff0000 | vp&0xffff}
	if seen != 0 {
		h.Timestamp = simEpoch.Add(seen)
	}
	return h
}

func mustBMP(m bmp.Message) []byte {
	b, err := bmp.Marshal(m, bgp.DefaultOptions)
	if err != nil {
		panic(fmt.Sprintf("gen: encode BMP message: %v", err))
	}
	return b
}

// AppendBMP appends g as one Route Monitoring message.
func AppendBMP(dst []byte, g *Group) []byte {
	return append(dst, mustBMP(&bmp.RouteMonitoring{Peer: bmpPeer(g.VP, g.Seen), Update: Update(g)})...)
}

// BMPGreeting is what a router sends a connecting station: Initiation,
// then Peer Up for every monitored session.
func BMPGreeting(sysName string, vps []uint32) []byte {
	out := mustBMP(bmp.NewInitiation(sysName, "artemis-bench load generator"))
	local := prefix.MustParseAddr("10.255.255.1")
	for _, vp := range vps {
		out = append(out, mustBMP(&bmp.PeerUp{
			Peer:       bmpPeer(vp, 0),
			LocalAddr:  local,
			LocalPort:  179,
			RemotePort: 30000,
			SentOpen:   bgp.NewOpen(64512, 90, local),
			RecvOpen:   bgp.NewOpen(bgp.ASN(vp), 90, peerAddr(vp)),
		})...)
	}
	return out
}

// AppendEvlog appends g as event-log lines, one per prefix, emitted at
// emitted (the replay source paces on that clock).
func AppendEvlog(dst []byte, g *Group, seq *uint64, emitted time.Duration) []byte {
	ev := feedtypes.Event{
		Source:       "bench",
		Collector:    "evlog",
		VantagePoint: bgp.ASN(g.VP),
		SeenAt:       g.Seen,
		EmittedAt:    emitted,
	}
	if g.Withdraw {
		ev.Kind = feedtypes.Withdraw
	} else {
		ev.Path = make([]bgp.ASN, len(g.Path))
		for i, as := range g.Path {
			ev.Path[i] = bgp.ASN(as)
		}
	}
	for _, p := range g.Prefixes {
		*seq++
		ev.Prefix = p
		dst = eventlog.AppendRecord(dst, eventlog.Record{Seq: *seq, Event: ev})
	}
	return dst
}

// ShiftTimes adds delta seconds to every message timestamp in buf, a
// run of whole BGP4MP records (mrtStream true) or BMP Route Monitoring
// messages. A bulk stream replays one pre-encoded block many
// times; shifting each pass keeps every route change's identity fresh,
// so the cross-source dedup never sees a repeat the workload did not
// intend.
func ShiftTimes(buf []byte, mrtStream bool, delta uint32) {
	for len(buf) > 0 {
		var ts []byte
		var n int
		if mrtStream {
			ts, n = buf[0:4], 12+int(binary.BigEndian.Uint32(buf[8:12]))
		} else {
			// common header (6) + per-peer header up to its seconds field (34)
			ts, n = buf[40:44], int(binary.BigEndian.Uint32(buf[1:5]))
		}
		binary.BigEndian.PutUint32(ts, binary.BigEndian.Uint32(ts)+delta)
		buf = buf[n:]
	}
}
