package jsonscan

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// skipAll scans data as one document of any shape.
func skipAll(data []byte) error {
	var s Scanner
	s.Reset(data)
	s.Skip()
	return s.End()
}

var documents = []string{
	`null`, `true`, `false`, `0`, `-0`, `1.5e+10`, `-12.25E-3`, `"s"`, `[]`, `{}`,
	` { "a" : [ 1 , { "b" : null } , "c" ] , "d" : -1 } `,
	`"é😀𐀀\ud800x\udc00\/\b\f\n\r\t\"\\"`,
	"\"\xff\xfe\"", "\"\xed\xa0\x80\"",
	``, ` `, `nul`, `nulls`, `tru`, `[1,]`, `[,1]`, `{"a":1,}`, `{"a" 1}`, `{"a":1 "b":2}`,
	`{1:2}`, `[1 2]`, `[1}`, `{"a":1]`, `01`, `-`, `1.`, `.5`, `1e`, `1e+`, `+1`, `0x1`,
	`"\x"`, `"\u12"`, `"\u12G4"`, "\"a\x01\"", `"abc`, `"\`, `[1] [2]`, `{} x`, "\t[\n]\r ",
	`[[[[]]]]`, `{"a":{"b":{"c":{}}}}`, `[nul]`, `[truex]`,
}

// TestValidityMatchesEncodingJSON: Skip+End accepts a document iff
// encoding/json does.
func TestValidityMatchesEncodingJSON(t *testing.T) {
	for _, doc := range documents {
		if got, want := skipAll([]byte(doc)) == nil, json.Valid([]byte(doc)); got != want {
			t.Errorf("%q: scanner valid=%v, encoding/json valid=%v", doc, got, want)
		}
	}
}

func TestMaxDepth(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		doc := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		if got, want := skipAll([]byte(doc)) == nil, json.Valid([]byte(doc)); got != want {
			t.Errorf("depth %d: scanner valid=%v, encoding/json valid=%v", depth, got, want)
		}
	}
}

// checkScalars decodes doc as each scalar field type with both decoders
// and requires the same accept/reject decision and the same value.
func checkScalars(t *testing.T, doc []byte) {
	t.Helper()
	var s Scanner
	read := func(kind Kind, f func()) bool {
		s.Reset(doc)
		if s.Peek() != kind {
			return false
		}
		f()
		return s.End() == nil
	}
	// encoding/json accepts null for any of these and leaves the field.
	isNull := string(bytes.TrimSpace(doc)) == "null"
	var str string
	var got []byte
	ok := read(String, func() { got = s.ReadString() })
	if err := json.Unmarshal(doc, &str); (err == nil && !isNull) != ok || ok && string(got) != str {
		t.Errorf("string %q: scanner %v %q, encoding/json %v %q", doc, ok, got, err, str)
	}
	var u32 uint32
	var u uint64
	ok = read(Number, func() { u = s.ReadUint(32) })
	if err := json.Unmarshal(doc, &u32); (err == nil && !isNull) != ok || ok && uint64(u32) != u {
		t.Errorf("uint32 %q: scanner %v %d, encoding/json %v %d", doc, ok, u, err, u32)
	}
	var i, want int64
	ok = read(Number, func() { i = s.ReadInt() })
	if err := json.Unmarshal(doc, &want); (err == nil && !isNull) != ok || ok && i != want {
		t.Errorf("int64 %q: scanner %v %d, encoding/json %v %d", doc, ok, i, err, want)
	}
	var f, wantF float64
	ok = read(Number, func() { f = s.ReadFloat() })
	if err := json.Unmarshal(doc, &wantF); (err == nil && !isNull) != ok || ok && f != wantF {
		t.Errorf("float64 %q: scanner %v %v, encoding/json %v %v", doc, ok, f, err, wantF)
	}
}

func TestScalarsMatchEncodingJSON(t *testing.T) {
	for _, doc := range append(documents,
		`4294967295`, `4294967296`, `18446744073709551615`, `18446744073709551616`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`1e400`, `-1e400`, `1e-400`, `123456789012345678901234567890.5e-3`, `1.0`, `1E2`,
	) {
		if doc != "" {
			checkScalars(t, []byte(doc))
		}
	}
}

// jsonMatches reports whether encoding/json decodes a member keyed key
// into a field tagged name.
func jsonMatches(key []byte, name string) bool {
	typ := reflect.StructOf([]reflect.StructField{{
		Name: "F", Type: reflect.TypeOf(0), Tag: reflect.StructTag(`json:"` + name + `"`),
	}})
	v := reflect.New(typ)
	doc := append(append([]byte{'{'}, AppendString(nil, string(key))...), ":1}"...)
	return json.Unmarshal(doc, v.Interface()) == nil && v.Elem().Field(0).Int() == 1
}

func TestKeyIs(t *testing.T) {
	for _, tc := range []struct {
		key, name string
		want      bool
	}{
		{"seen_at", "seen_at", true},
		{"SEEN_AT", "seen_at", true},
		{"\u017feen_at", "seen_at", true}, // long s folds to s
		{"\u212aey", "key", true},         // Kelvin sign folds to k
		{"pref\u0130x", "prefix", false},  // dotted capital I is in no fold set with i
		{"seen_at ", "seen_at", false},
		{"seen", "seen_at", false},
		{"moreSpecific", "morespecific", true},
		{"", "type", false},
	} {
		if got := KeyIs([]byte(tc.key), tc.name); got != tc.want {
			t.Errorf("KeyIs(%q, %q) = %v, want %v", tc.key, tc.name, got, tc.want)
		}
		if got := jsonMatches([]byte(tc.key), tc.name); got != tc.want {
			t.Errorf("encoding/json matches %q to %q: %v, want %v", tc.key, tc.name, got, tc.want)
		}
	}
}

// TestUint32sMatchesEncodingJSON: repeated array fields, nulls inside and
// for the whole field, decode as encoding/json decodes a []uint32 field.
func TestUint32sMatchesEncodingJSON(t *testing.T) {
	var u Uint32s
	var s Scanner
	for _, doc := range []string{
		`{"p":[1,2,3]}`,
		`{"p":[1,2,3],"p":[4]}`,
		`{"p":[1,2,3],"p":[4],"p":[null,null,null]}`,
		`{"p":[1,2,3],"p":[4],"p":[null,null,null,null,null]}`,
		`{"p":[1,2],"p":null,"p":[null,7]}`,
		`{"p":[null]}`,
		`{"p":[],"p":[null,null]}`,
		`{"p":null}`,
		`{"p":[1,-1]}`,
		`{"p":[1,"2"]}`,
		`{"p":{}}`,
		`{"p":[4294967296]}`,
	} {
		var want struct {
			P []uint32 `json:"p"`
		}
		wantErr := json.Unmarshal([]byte(doc), &want)
		u.Reset()
		s.Reset([]byte(doc))
		s.Enter()
		for s.More() {
			s.Key()
			u.Read(&s, "p")
		}
		err := s.End()
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: scanner err %v, encoding/json err %v", doc, err, wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(append([]uint32{}, u.Values()...), append([]uint32{}, want.P...)) {
			t.Errorf("%s: scanner %v, encoding/json %v", doc, u.Values(), want.P)
		}
	}
}

// FuzzScanner: any input is valid to the scanner iff encoding/json says
// so, and a scalar document decodes to the same string or number.
func FuzzScanner(f *testing.F) {
	for _, doc := range documents {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if got, want := skipAll(doc) == nil, json.Valid(doc); got != want {
			t.Fatalf("%q: scanner valid=%v, encoding/json valid=%v", doc, got, want)
		}
		if len(doc) > 0 {
			checkScalars(t, doc)
		}
		// doc as an object key, unescaped as a decoder would see it.
		var s Scanner
		s.Reset(AppendString(nil, string(doc)))
		key := s.ReadString()
		for _, name := range []string{"seen_at", "prefix", "moreSpecific", "k"} {
			if got, want := KeyIs(key, name), jsonMatches(key, name); got != want {
				t.Fatalf("key %q, field %q: KeyIs %v, encoding/json %v", key, name, got, want)
			}
		}
	})
}
