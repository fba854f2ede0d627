package eventlog

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

// The reference decoder: the envelope parsed by encoding/json into
// reflection structs. FuzzEventJSON holds the scanner decoder to exactly
// this accept set and these records.

type wireData struct {
	Prefix string   `json:"prefix"`
	VP     uint32   `json:"vp"`
	Path   []uint32 `json:"path"`
}

type wireMeta struct {
	Src  string `json:"src"`
	Col  string `json:"col"`
	Seen int64  `json:"seen"`
}

func referenceParseRecord(line []byte) (Record, error) {
	var arr [6]json.RawMessage
	elems := arr[:0]
	if err := json.Unmarshal(line, &elems); err != nil {
		return Record{}, err
	}
	if len(elems) != 6 {
		return Record{}, fmt.Errorf("envelope has %d elements, want 6", len(elems))
	}
	var dir, typ string
	var r Record
	var emitted int64
	var data wireData
	var meta wireMeta
	for i, dst := range []any{&dir, &r.Seq, &emitted, &typ, &data, &meta} {
		if err := json.Unmarshal(elems[i], dst); err != nil {
			return Record{}, err
		}
	}
	if dir != "R" {
		return Record{}, fmt.Errorf("unknown direction %q", dir)
	}
	ev := &r.Event
	switch typ {
	case "announce":
		ev.Kind = feedtypes.Announce
	case "withdraw":
		ev.Kind = feedtypes.Withdraw
	default:
		return Record{}, fmt.Errorf("unknown event type %q", typ)
	}
	p, err := prefix.Parse(data.Prefix)
	if err != nil {
		return Record{}, err
	}
	ev.Prefix = p
	ev.VantagePoint = bgp.ASN(data.VP)
	if len(data.Path) > 0 {
		ev.Path = make([]bgp.ASN, len(data.Path))
		for i, asn := range data.Path {
			ev.Path[i] = bgp.ASN(asn)
		}
	}
	ev.Source = meta.Src
	ev.Collector = meta.Col
	ev.SeenAt = time.Duration(meta.Seen)
	ev.EmittedAt = time.Duration(emitted)
	return r, nil
}

// FuzzEventJSON: the decoder accepts exactly the lines the reference
// accepts and returns an identical record, through ParseRecord and
// through a reused decoder into a Batch alike. Any line it accepts must
// re-encode, and the re-encoded line must be a decode fixed point
// (decode→encode→decode is the identity). This pins the envelope as
// canonical: whatever fields a foreign writer adds, what our encoder
// emits is exactly what our decoder returns, so archives survive round
// trips bit for bit.
func FuzzEventJSON(f *testing.F) {
	seedEvents := []feedtypes.Event{
		{Source: "ris", Collector: "rrc00", VantagePoint: 65002, Kind: feedtypes.Announce,
			Prefix: prefix.MustParse("208.65.153.0/24"), Path: []bgp.ASN{65002, 64666}, SeenAt: 1, EmittedAt: 2},
		{Source: "bmp", Collector: "rtr1", VantagePoint: 65003, Kind: feedtypes.Withdraw,
			Prefix: prefix.MustParse("2001:db8::/32"), EmittedAt: -5},
		{Source: "s\"\\\n\x01ö", Collector: "", Kind: feedtypes.Announce,
			Prefix: prefix.MustParse("0.0.0.0/0"), Path: []bgp.ASN{4200000000}},
	}
	for i, ev := range seedEvents {
		f.Add(AppendRecord(nil, Record{Seq: uint64(i), Event: ev}))
	}
	for _, s := range []string{
		`["R",0,0,"announce",{"prefix":"10.0.0.0/8","vp":0,"path":[]},{"src":"","col":"","seen":0}]`,
		`["R",18446744073709551615,0,"withdraw",{"prefix":"::/0","vp":4294967295,"path":null},{"src":"x","col":"y","seen":-1}]`,
		`["L",0,0,"announce",{},{}]`,
		`[null,null,null,null,null,null]`,
		`["\u0052",null,-0,"withdraw",{"PREFIX":"10.0.0.0/8","Vp":7,"pAth":[1,2,3],"path":[null,9]},null]`,
		`["R",1,2,"announce",{"prefix":"10.0.0.0/8","path":[1,2,3],"path":[4],"path":[null,null,null,null]},{"ſrc":"s","col":"\ud800","seen":9223372036854775807}]`,
		`["R",1,-9223372036854775808,"announce",{"prefix":"10.0.0.0/8","x":[{"y":[]}]},{"seen":-9223372036854775809}]`,
		`["R",1.5,0,"announce",{"prefix":"10.0.0.0/8"},{}]`,
		`["R",1,0,"announce",{"prefix":"10.0.0.0/8","vp":4294967296},{}]`,
		`["R",1,0,"announce",{"prefix":"10.0.0.0/8"},{},7]`,
		`["R",1,0,"announce",[],{}]`,
		`["R",1,0,"announce",{"prefix":"10.0.0.0/8"},{}]` + "\n",
		`["R",1,0,"announce",{"prefix":"10.0.0.0/8"},{}] x`,
	} {
		f.Add([]byte(s))
	}

	var d decoder
	var b feedtypes.Batch
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := referenceParseRecord(line)
		r1, err := ParseRecord(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("accept mismatch on %q: ParseRecord err %v, reference err %v", line, err, wantErr)
		}
		b.Reset()
		seq, derr := d.batch(line, &b)
		if (derr == nil) != (wantErr == nil) {
			t.Fatalf("accept mismatch on %q: decoder err %v, reference err %v", line, derr, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(r1, want) {
			t.Fatalf("ParseRecord mismatch on %q:\n got %#v\nwant %#v", line, r1, want)
		}
		if got := (Record{Seq: seq, Event: b.Events[0]}); len(b.Events) != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("decoder mismatch on %q:\n got %#v\nwant %#v", line, b.Events, want)
		}
		enc := AppendRecord(nil, r1)
		r2, err := ParseRecord(enc)
		if err != nil {
			t.Fatalf("own encoding does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(r2, r1) {
			t.Fatalf("decode not a fixed point:\n first %#v\nsecond %#v\nline %s", r1, r2, enc)
		}
		// Canonical form is stable: encoding r2 yields identical bytes.
		if enc2 := AppendRecord(nil, r2); string(enc2) != string(enc) {
			t.Fatalf("encoder not deterministic:\n%s\n%s", enc, enc2)
		}
	})
}
