package ris

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/prefix"
)

// The reference decoder: a ris_message parsed by encoding/json into
// reflection structs, then converted to an event. FuzzRISMessage holds the
// scanner decoder to exactly this accept set and these events.

type wireEnvelope struct {
	Type string    `json:"type"`
	Data *wireData `json:"data,omitempty"`
}

type wireData struct {
	Timestamp    float64  `json:"timestamp,omitempty"`
	SeenAt       float64  `json:"seen_at,omitempty"`
	Host         string   `json:"host,omitempty"`
	PeerASN      uint32   `json:"peer_asn,omitempty"`
	MsgType      string   `json:"msg_type,omitempty"`
	Prefix       string   `json:"prefix,omitempty"`
	Path         []uint32 `json:"path,omitempty"`
	Prefixes     []string `json:"prefixes,omitempty"`
	MoreSpecific bool     `json:"moreSpecific,omitempty"`
	LessSpecific bool     `json:"lessSpecific,omitempty"`
}

func referenceDecode(raw []byte) (feedtypes.Event, error) {
	var e wireEnvelope
	if err := json.Unmarshal(raw, &e); err != nil {
		return feedtypes.Event{}, err
	}
	if e.Type != "ris_message" || e.Data == nil {
		return feedtypes.Event{}, fmt.Errorf("ris: unexpected message type %q", e.Type)
	}
	p, err := prefix.Parse(e.Data.Prefix)
	if err != nil {
		return feedtypes.Event{}, err
	}
	ev := feedtypes.Event{
		Source:       SourceName,
		Collector:    e.Data.Host,
		VantagePoint: bgp.ASN(e.Data.PeerASN),
		Prefix:       p,
		SeenAt:       time.Duration(e.Data.SeenAt * float64(time.Second)),
		EmittedAt:    time.Duration(e.Data.Timestamp * float64(time.Second)),
	}
	if e.Data.MsgType == feedtypes.Withdraw.String() {
		ev.Kind = feedtypes.Withdraw
	} else {
		for _, a := range e.Data.Path {
			ev.Path = append(ev.Path, bgp.ASN(a))
		}
	}
	return ev, nil
}

// risSeeds are messages in the shapes real servers send, plus the corners
// of encoding/json's behaviour the decoder must reproduce.
var risSeeds = []string{
	`{"type":"ris_message","data":{"timestamp":1000.5,"seen_at":999.25,"host":"rrc00","peer_asn":65002,"msg_type":"announcement","prefix":"208.65.153.0/24","path":[65002,3356,17557]}}`,
	`{"type":"ris_message","data":{"timestamp":1000.000000,"seen_at":1000.000000,"host":"rrc00","peer_asn":65003,"msg_type":"withdrawal","prefix":"2001:db8::/32"}}`,
	`{"data":{"prefix":"10.0.0.0/8","path":[1,2,3]},"type":"ris_message"}`,
	` { "type" : "ris_message" , "data" : { "prefix" : "10.0.0.0/8" , "path" : [ ] } } `,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","path":[1,2,3]},"data":{"path":[null,9]}}`,
	`{"type":"ris_message","data":{"path":[1,2,3],"path":[4],"path":[null,null,null,null],"prefix":"10.0.0.0/8"}}`,
	`{"type":"ris_message","data":{"path":[1,2],"path":null,"path":[null],"prefix":"10.0.0.0/8"}}`,
	`{"type":"ris_message","data":{"host":"a"},"data":null,"data":{"prefix":"10.0.0.0/8"}}`,
	`{"type":"ris_message","type":null,"data":{"host":"a","host":null,"prefix":"10.0.0.0/8","timestamp":null}}`,
	`{"TYPE":"ris_message","Data":{"PREFIX":"10.0.0.0/8","ſeen_at":5,"prefİx":"10.0.0.0/9","\u0068ost":"h\u00e9\ud83d\ude00\ud800x"}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","prefixes":["a",null],"moreSpecific":true,"lessSpecific":null,"extra":{"x":[1,{"y":null}]}}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","peer_asn":4294967296}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","peer_asn":1.0}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","timestamp":1e400}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","timestamp":-1e-400,"seen_at":-0}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","moreSpecific":"yes"}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.1/8"}}`,
	`{"type":"ris_subscribe","data":{"prefixes":["10.0.0.0/8"]}}`,
	`{"type":"ris_message","data":[]}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8"}}x`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8",}}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8"}`,
	`{"type":"ris_message","data":{"prefix":"10.0.0.0/8","x":"\x01"}}`,
	`null`,
	`[]`,
}

// FuzzRISMessage: the scanner decoder accepts exactly the messages the
// reference accepts and decodes each to an identical event. One decoder
// serves every input, so state leaking from one message into the next
// shows up too.
func FuzzRISMessage(f *testing.F) {
	for _, s := range risSeeds {
		f.Add([]byte(s))
	}
	var d decoder
	var b feedtypes.Batch
	f.Fuzz(func(t *testing.T, msg []byte) {
		want, wantErr := referenceDecode(msg)
		b.Reset()
		err := d.decode(msg, &b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accept mismatch on %q: decoder err %v, reference err %v", msg, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(b.Events) != 1 || !reflect.DeepEqual(b.Events[0], want) {
			t.Fatalf("decode mismatch on %q:\n got %#v\nwant %#v", msg, b.Events, want)
		}
	})
}

// BenchmarkRISDecode is one ris_message into a reused batch, the ingest
// reader's per-message cost; the allocs/op gate in bench.gates holds it
// allocation-free.
func BenchmarkRISDecode(b *testing.B) {
	msgs := [][]byte{
		AppendMessage(nil, feedtypes.Event{Collector: "rrc00", VantagePoint: 65002, Prefix: prefix.MustParse("208.65.153.0/24"),
			Path: []bgp.ASN{65002, 3356, 17557}, SeenAt: 1000 * time.Second, EmittedAt: 1000*time.Second + 5*time.Millisecond}),
		AppendMessage(nil, feedtypes.Event{Collector: "rrc00", VantagePoint: 65003, Prefix: prefix.MustParse("2001:db8:beef::/48"),
			Path: []bgp.ASN{65003, 6939, 64500}, SeenAt: 1001 * time.Second, EmittedAt: 1001 * time.Second}),
		AppendMessage(nil, feedtypes.Event{Collector: "rrc00", VantagePoint: 65002, Kind: feedtypes.Withdraw,
			Prefix: prefix.MustParse("10.1.2.0/24"), SeenAt: 1002 * time.Second, EmittedAt: 1002 * time.Second}),
	}
	var d decoder
	var batch feedtypes.Batch
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i%64 == 0 {
			batch.Reset()
		}
		if err := d.decode(msgs[i%len(msgs)], &batch); err != nil {
			b.Fatal(err)
		}
	}
}
