package rpki

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
)

// The reflection decoder Parse replaced, kept as FuzzROAParse's reference.
type refExport struct {
	ROAs []refROA `json:"roas"`
}

type refROA struct {
	ASN       refASN `json:"asn"`
	Prefix    string `json:"prefix"`
	MaxLength int    `json:"maxLength"`
}

type refASN bgp.ASN

func (a *refASN) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	s = strings.TrimPrefix(strings.TrimPrefix(s, "AS"), "as")
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return fmt.Errorf("rpki: bad asn %s", string(b))
	}
	*a = refASN(v)
	return nil
}

func refParse(data []byte) (*Table, error) {
	var exp refExport
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("rpki: parse export: %w", err)
	}
	t := NewTable()
	for i, r := range exp.ROAs {
		p, err := prefix.Parse(r.Prefix)
		if err != nil {
			return nil, fmt.Errorf("rpki: roa %d: %w", i, err)
		}
		t.AddROA(ROA{Prefix: p, ASN: bgp.ASN(r.ASN), MaxLength: r.MaxLength})
	}
	return t, nil
}

// roaList is every ROA in t: prefixes in trie order, each prefix's ROAs
// in the order they were added.
func roaList(t *Table) []ROA {
	var out []ROA
	t.trie.Walk(func(_ prefix.Prefix, roas []ROA) bool {
		out = append(out, roas...)
		return true
	})
	return out
}

// FuzzROAParse holds Parse to the encoding/json decoder it replaced: both
// accept or both reject, and when they accept they build the same ROAs.
func FuzzROAParse(f *testing.F) {
	for _, seed := range []string{
		exportJSON,
		`null`,
		` {"roas": null} `,
		`{"roas": []}`,
		`{}`,
		`[]`,
		`"roas"`,
		`{"roas": {}}`,
		`{"roas": [null, {"asn": 1, "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": 1, "prefix": "10.0.0.0/8"}, 7]}`,
		`{"ROAS": [{"ASN": "as7", "Prefix": "10.0.0.0/8", "MAXLENGTH": 9}]}`,
		`{"roas": [{"aſn": 7, "prefix": "10.0.0.0/8", "maxLength": 9}]}`,
		`{"roas": [{"asn": "ASas7", "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": "asAS7", "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": "7", "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": "\"7\"", "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": 4294967296, "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": 1e3, "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": null, "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": {"x": 1}, "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": 7, "prefix": "10.0.0.0/8", "maxLength": 1.5}]}`,
		`{"roas": [{"asn": 7, "prefix": "10.0.0.0/8", "maxLength": -3}]}`,
		`{"roas": [{"asn": 7, "prefix": "10.0.0.0/8", "maxLength": "9"}]}`,
		`{"roas": [{"asn": 7, "prefix": "10.0.0.0/8", "maxLength": null}]}`,
		`{"roas": [{"asn": 7, "prefix": null}]}`,
		`{"roas": [{"asn": 7, "prefix": "bad", "prefix": "10.0.0.0/8"}]}`,
		`{"roas": [{"asn": 7, "prefix": "10.0.0.0\/8"}]}`,
		`{"roas": [{"asn": 7, "prefix": 10}]}`,
		`{"roas": [{"asn": 7}]}`,
		`{"roas": [{"asn": 1, "prefix": "10.0.0.0/8", "maxLength": 9}], "roas": [{"prefix": "11.0.0.0/8"}]}`,
		`{"roas": [{"asn": 1, "prefix": "1.0.0.0/8"}, {"asn": 2, "prefix": "2.0.0.0/8"}, {"asn": 3, "prefix": "3.0.0.0/8"}], "roas": [{}], "roas": [{}, {}, {}]}`,
		`{"roas": [{"asn": 1, "prefix": "1.0.0.0/8"}], "roas": [], "roas": [{}]}`,
		`{"roas": [{"asn": 1, "prefix": "1.0.0.0/8"}], "roas": null, "roas": [{}]}`,
		`{"x": [1, {"y": [true, false, null]}], "roas": [{"asn": 1, "prefix": "1.0.0.0/8", "z": {}}]}`,
		`{"roas": [{"asn": 1, "prefix": "1.0.0.0/8"}]} x`,
		`{"roas": [{"asn": 1, "prefix": "1.0.0.0/8"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := Parse(data)
		want, werr := refParse(data)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Parse error %v, reference error %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if g, w := roaList(got), roaList(want); got.Len() != want.Len() || !reflect.DeepEqual(g, w) {
			t.Fatalf("Parse built %d ROAs %v, reference %d ROAs %v", got.Len(), g, want.Len(), w)
		}
	})
}
