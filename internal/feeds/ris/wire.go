package ris

import (
	"fmt"
	"strconv"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/jsonscan"
	"artemis/internal/prefix"
)

// The wire format mirrors the shape of the RIS Live JSON API: an envelope
// with a type tag and a data object. One ris_subscribe flows client→server
// per connection, then ris_message events flow server→client:
//
//	{"type":"ris_message","data":{"timestamp":47,"seen_at":42,"host":"rrc01",
//	 "peer_asn":65001,"msg_type":"announcement","prefix":"10.0.0.0/23",
//	 "path":[65001,65002,196615]}}
//
// timestamp (emission time) and seen_at (the vantage point's change time)
// are seconds of sim time; msg_type is "announcement" or "withdrawal".

// subscribeMsg is the ris_subscribe envelope, sent once per connection and
// left to encoding/json.
type subscribeMsg struct {
	Type string         `json:"type"`
	Data *subscribeData `json:"data,omitempty"`
}

type subscribeData struct {
	Prefixes     []string `json:"prefixes,omitempty"`
	MoreSpecific bool     `json:"moreSpecific,omitempty"`
	LessSpecific bool     `json:"lessSpecific,omitempty"`
}

func filterToWire(f feedtypes.Filter) subscribeMsg {
	d := &subscribeData{MoreSpecific: f.MoreSpecific, LessSpecific: f.LessSpecific}
	for _, p := range f.Prefixes {
		d.Prefixes = append(d.Prefixes, p.String())
	}
	return subscribeMsg{Type: "ris_subscribe", Data: d}
}

func wireToFilter(m subscribeMsg) (feedtypes.Filter, error) {
	if m.Type != "ris_subscribe" || m.Data == nil {
		return feedtypes.Filter{}, fmt.Errorf("ris: expected ris_subscribe, got %q", m.Type)
	}
	f := feedtypes.Filter{MoreSpecific: m.Data.MoreSpecific, LessSpecific: m.Data.LessSpecific}
	for _, s := range m.Data.Prefixes {
		p, err := prefix.Parse(s)
		if err != nil {
			return feedtypes.Filter{}, fmt.Errorf("ris: bad subscription prefix: %w", err)
		}
		f.Prefixes = append(f.Prefixes, p)
	}
	return f, nil
}

// AppendMessage appends ev as a ris_message envelope to dst.
func AppendMessage(dst []byte, ev feedtypes.Event) []byte {
	dst = append(dst, `{"type":"ris_message","data":{"timestamp":`...)
	dst = strconv.AppendFloat(dst, ev.EmittedAt.Seconds(), 'f', -1, 64)
	dst = append(dst, `,"seen_at":`...)
	dst = strconv.AppendFloat(dst, ev.SeenAt.Seconds(), 'f', -1, 64)
	dst = append(dst, `,"host":`...)
	dst = jsonscan.AppendString(dst, ev.Collector)
	dst = append(dst, `,"peer_asn":`...)
	dst = strconv.AppendUint(dst, uint64(ev.VantagePoint), 10)
	dst = append(dst, `,"msg_type":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, `","prefix":"`...)
	dst = ev.Prefix.AppendText(dst)
	dst = append(dst, `","path":[`...)
	for i, as := range ev.Path {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(as), 10)
	}
	return append(dst, "]}}"...)
}

// decoder turns ris_message envelopes into events on the scanner. It
// accepts exactly the messages encoding/json accepts into the reference
// structs kept in the package's tests, and yields the same events;
// FuzzRISMessage holds it to that. Its scratch
// space is reused, so decoding allocates nothing once it has grown.
type decoder struct {
	sc    jsonscan.Scanner
	msg   message
	hosts feedtypes.Interner
}

// message is one envelope's fields as decoding leaves them. A key that
// appears twice overwrites the first value, null leaves a scalar field
// as it was, and "data": null discards every data field read so far.
type message struct {
	isMessage  bool // type is "ris_message"
	hasData    bool
	timestamp  float64
	seenAt     float64
	host       []byte
	peerASN    uint32
	withdrawal bool // msg_type is "withdrawal"
	prefix     []byte
	path       jsonscan.Uint32s
}

func (m *message) resetData() {
	m.hasData, m.timestamp, m.seenAt, m.peerASN, m.withdrawal = false, 0, 0, 0, false
	m.host, m.prefix = m.host[:0], m.prefix[:0]
	m.path.Reset()
}

// decode appends the event msg carries to b, its path in b's arena.
func (d *decoder) decode(msg []byte, b *feedtypes.Batch) error {
	m, sc := &d.msg, &d.sc
	m.isMessage = false
	m.resetData()
	sc.Reset(msg)
	if sc.Peek() != jsonscan.Object {
		return fmt.Errorf("ris: bad server message: %w", sc.Mismatch("message"))
	}
	sc.Enter()
	for sc.More() {
		switch key := sc.Key(); {
		case jsonscan.KeyIs(key, "type"):
			if !sc.SkipNull() {
				m.isMessage = string(sc.ReadString()) == "ris_message"
			}
		case jsonscan.KeyIs(key, "data"):
			switch {
			case sc.SkipNull():
				m.resetData()
			case sc.Peek() == jsonscan.Object:
				m.hasData = true
				d.decodeData()
			default:
				sc.Mismatch("data")
			}
		default:
			sc.Skip()
		}
	}
	if err := sc.End(); err != nil {
		return fmt.Errorf("ris: bad server message: %w", err)
	}
	if !m.isMessage || !m.hasData {
		return fmt.Errorf("ris: unexpected message")
	}
	p, err := prefix.ParseBytes(m.prefix)
	if err != nil {
		return fmt.Errorf("ris: bad prefix: %w", err)
	}
	ev := feedtypes.Event{
		Source:       SourceName,
		Collector:    d.hosts.Intern(m.host),
		VantagePoint: bgp.ASN(m.peerASN),
		Prefix:       p,
		SeenAt:       time.Duration(m.seenAt * float64(time.Second)),
		EmittedAt:    time.Duration(m.timestamp * float64(time.Second)),
	}
	if m.withdrawal {
		ev.Kind = feedtypes.Withdraw
	} else if asns := m.path.Values(); len(asns) > 0 {
		ev.Path = b.NewPath(len(asns))
		for i, as := range asns {
			ev.Path[i] = bgp.ASN(as)
		}
	}
	b.Append(ev)
	return nil
}

// decodeData reads the data object's members into d.msg. The
// subscription fields are only type-checked: a message carrying them is
// still a message.
func (d *decoder) decodeData() {
	m, sc := &d.msg, &d.sc
	sc.Enter()
	for sc.More() {
		key := sc.Key()
		switch {
		case jsonscan.KeyIs(key, "timestamp"):
			if !sc.SkipNull() {
				m.timestamp = sc.ReadFloat()
			}
		case jsonscan.KeyIs(key, "seen_at"):
			if !sc.SkipNull() {
				m.seenAt = sc.ReadFloat()
			}
		case jsonscan.KeyIs(key, "host"):
			if !sc.SkipNull() {
				m.host = append(m.host[:0], sc.ReadString()...)
			}
		case jsonscan.KeyIs(key, "peer_asn"):
			if !sc.SkipNull() {
				m.peerASN = uint32(sc.ReadUint(32))
			}
		case jsonscan.KeyIs(key, "msg_type"):
			if !sc.SkipNull() {
				m.withdrawal = string(sc.ReadString()) == feedtypes.Withdraw.String()
			}
		case jsonscan.KeyIs(key, "prefix"):
			if !sc.SkipNull() {
				m.prefix = append(m.prefix[:0], sc.ReadString()...)
			}
		case jsonscan.KeyIs(key, "path"):
			m.path.Read(sc, "path")
		case jsonscan.KeyIs(key, "prefixes"):
			switch {
			case sc.SkipNull():
			case sc.Peek() == jsonscan.Array:
				sc.Enter()
				for sc.More() {
					if !sc.SkipNull() {
						sc.ReadString()
					}
				}
			default:
				sc.Mismatch("prefixes")
			}
		case jsonscan.KeyIs(key, "moreSpecific"), jsonscan.KeyIs(key, "lessSpecific"):
			switch sc.Peek() {
			case jsonscan.True, jsonscan.False, jsonscan.Null:
				sc.Skip()
			default:
				sc.Mismatch(string(key))
			}
		default:
			sc.Skip()
		}
	}
}
