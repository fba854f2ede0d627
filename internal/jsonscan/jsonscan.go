// Package jsonscan is a small pull scanner for one JSON document held in
// memory, and the handful of conversions the feed decoders need on top of
// it. The RIS-Live message decoder (internal/feeds/ris) and the event-log
// envelope decoder (internal/feeds/eventlog) are written on it instead of
// on encoding/json's reflection, so decoding a message allocates nothing:
// strings without escapes are returned as sub-slices of the input, numbers
// as their raw bytes, and the scanner's scratch space is reused across
// documents.
//
// The decoders built on it must accept exactly the inputs encoding/json
// accepts for the equivalent structs, and produce the same values. The
// scanner therefore validates the whole document the way encoding/json
// does (syntax, nesting depth, trailing data), Skip validates what it
// skips, ReadString unescapes as encoding/json does (invalid UTF-8 and
// unpaired surrogates become U+FFFD), and KeyIs matches object keys to
// field names with encoding/json's case folding. The decoders' fuzz targets
// hold them to that against the reflection decoders, kept as references in
// their test files.
//
// A decoder drives the structure:
//
//	sc.Reset(msg)
//	if sc.Peek() != jsonscan.Object {
//		return sc.Mismatch("message")
//	}
//	sc.Enter()
//	for sc.More() {
//		switch key := sc.Key(); {
//		case jsonscan.KeyIs(key, "type"):
//			...
//		default:
//			sc.Skip()
//		}
//	}
//	return sc.End()
package jsonscan

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Kind is the JSON type of the next value.
type Kind uint8

// Value kinds. Invalid means no value can start at the next byte (or the
// input ended); Peek has then recorded a syntax error.
const (
	Invalid Kind = iota
	Object
	Array
	String
	Number
	True
	False
	Null
)

var kindNames = [...]string{"invalid", "object", "array", "string", "number", "true", "false", "null"}

func (k Kind) String() string { return kindNames[k] }

// maxDepth is the deepest nesting of arrays and objects accepted, the
// limit encoding/json applies.
const maxDepth = 10000

// Container states on the scanner's stack: which bracket closes it, and
// whether a member has been read (so the next one needs a comma).
const (
	objectFirst uint8 = iota
	objectMore
	arrayFirst
	arrayMore
)

// Scanner reads one JSON document. The zero value is ready for Reset.
// Errors are sticky: after the first one every read returns a zero value,
// Peek returns Invalid, More returns false, and End reports it.
type Scanner struct {
	data  []byte
	pos   int
	stack []uint8
	str   []byte // ReadString's unescape buffer
	err   error
}

// Reset starts scanning data, keeping the scratch space of the previous
// document.
func (s *Scanner) Reset(data []byte) {
	s.data, s.pos, s.stack, s.err = data, 0, s.stack[:0], nil
}

func (s *Scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("jsonscan: "+format+" at offset %d", append(args, s.pos)...)
	}
}

// Mismatch records that the next value's type does not fit what (a field
// name, say) and returns the error; if the scanner had already failed it
// returns that error instead.
func (s *Scanner) Mismatch(what string) error {
	if s.err == nil {
		s.fail("cannot decode %s into %s", s.Peek(), what)
	}
	return s.err
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

// at reports whether the next value starts with c.
func (s *Scanner) at(c byte) bool {
	s.skipSpace()
	return s.err == nil && s.pos < len(s.data) && s.data[s.pos] == c
}

// Peek returns the kind of the next value without consuming it.
func (s *Scanner) Peek() Kind {
	if s.err != nil {
		return Invalid
	}
	s.skipSpace()
	if s.pos >= len(s.data) {
		s.fail("unexpected end of input")
		return Invalid
	}
	switch c := s.data[s.pos]; c {
	case '{':
		return Object
	case '[':
		return Array
	case '"':
		return String
	case 't':
		return True
	case 'f':
		return False
	case 'n':
		return Null
	default:
		if c == '-' || isDigit(c) {
			return Number
		}
		s.fail("invalid character %q looking for beginning of value", c)
		return Invalid
	}
}

// Enter consumes the '{' or '[' that opens the next value (Peek must have
// returned Object or Array). Read its members with More.
func (s *Scanner) Enter() {
	switch s.Peek() {
	case Object:
		s.push(objectFirst)
	case Array:
		s.push(arrayFirst)
	default:
		s.fail("expected object or array")
	}
}

func (s *Scanner) push(state uint8) {
	if len(s.stack) >= maxDepth {
		s.fail("exceeded max depth")
		return
	}
	s.stack = append(s.stack, state)
	s.pos++
}

// More reports whether the innermost open container has another member,
// consuming the comma before it. When the container ends, More consumes
// its closing bracket and returns false. In an object, read the member's
// key with Key next; in an array, read the element.
func (s *Scanner) More() bool {
	if s.err != nil || len(s.stack) == 0 {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) {
		s.fail("unexpected end of input")
		return false
	}
	top := &s.stack[len(s.stack)-1]
	closer := byte(']')
	if *top <= objectMore {
		closer = '}'
	}
	c := s.data[s.pos]
	if c == closer {
		s.pos++
		s.stack = s.stack[:len(s.stack)-1]
		return false
	}
	switch *top {
	case objectFirst, arrayFirst:
		*top++
	default:
		if c != ',' {
			s.fail("invalid character %q after element", c)
			return false
		}
		s.pos++
	}
	return true
}

// Key reads an object member's key and the colon after it. The bytes are
// unescaped and valid until the next ReadString or Key.
func (s *Scanner) Key() []byte {
	if !s.at('"') {
		s.fail("expected object key")
		return nil
	}
	k := s.ReadString()
	s.skipSpace()
	if s.err != nil || s.pos >= len(s.data) || s.data[s.pos] != ':' {
		s.fail("expected ':' after object key")
		return nil
	}
	s.pos++
	return k
}

// End checks that the document ended after its value (only whitespace
// follows) and returns the first error.
func (s *Scanner) End() error {
	if s.err == nil {
		s.skipSpace()
		switch {
		case len(s.stack) > 0:
			s.fail("unterminated container")
		case s.pos < len(s.data):
			s.fail("invalid character %q after top-level value", s.data[s.pos])
		}
	}
	return s.err
}

// SkipNull consumes the next value if it is null and reports whether it
// was. encoding/json leaves a scalar field as it was when it decodes null
// into it, so a decoder reads a scalar field as
//
//	if !sc.SkipNull() {
//		field = sc.ReadInt() // an error unless the value is a number
//	}
func (s *Scanner) SkipNull() bool {
	if s.Peek() != Null {
		return false
	}
	s.literal()
	return true
}

// Skip consumes the next value, whatever its kind, validating it.
func (s *Scanner) Skip() {
	base := len(s.stack)
	for s.err == nil {
		switch s.Peek() {
		case Object, Array:
			s.Enter()
		case String:
			s.scanString()
		case Number:
			s.number()
		case True, False, Null:
			s.literal()
		default:
			return
		}
		// Move to the next value to skip, closing the containers that end
		// here.
		for len(s.stack) > base && s.err == nil {
			if s.More() {
				if s.stack[len(s.stack)-1] == objectMore {
					s.Key()
				}
				break
			}
		}
		if len(s.stack) == base {
			return
		}
	}
}

// Raw consumes the next value, validating it, and returns its text as it
// stands in the input, a sub-slice of it: what encoding/json hands to a
// json.Unmarshaler.
func (s *Scanner) Raw() []byte {
	s.skipSpace()
	start := s.pos
	s.Skip()
	if s.err != nil {
		return nil
	}
	return s.data[start:s.pos]
}

// literal consumes true, false or null.
func (s *Scanner) literal() {
	var want string
	switch {
	case s.at('t'):
		want = "true"
	case s.at('f'):
		want = "false"
	case s.at('n'):
		want = "null"
	default:
		s.fail("expected literal")
		return
	}
	if len(s.data)-s.pos < len(want) || string(s.data[s.pos:s.pos+len(want)]) != want {
		s.fail("invalid literal")
		return
	}
	s.pos += len(want)
}

// number consumes the next number and returns its text, a sub-slice of
// the input; any other value is an error.
func (s *Scanner) number() []byte {
	if s.skipSpace(); s.err != nil || s.pos >= len(s.data) || s.data[s.pos] != '-' && !isDigit(s.data[s.pos]) {
		s.fail("expected number")
		return nil
	}
	d, start := s.data, s.pos
	i := start
	if d[i] == '-' {
		i++
	}
	digits := func() bool {
		n := i
		for i < len(d) && isDigit(d[i]) {
			i++
		}
		return i > n
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.pos = i
		s.fail("invalid number")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			s.pos = i
			s.fail("invalid number")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.pos = i
			s.fail("invalid number")
			return nil
		}
	}
	s.pos = i
	return d[start:i]
}

// scanString validates the string at s.pos and consumes it. It returns the
// raw contents between the quotes, and whether they must be unescaped to
// get the string's value (escapes or invalid UTF-8).
func (s *Scanner) scanString() (raw []byte, escaped bool) {
	if !s.at('"') {
		s.fail("expected string")
		return nil, false
	}
	d := s.data
	start := s.pos + 1
	for i := start; i < len(d); {
		// The common bytes first: printable ASCII other than '"' and '\\'.
		if c := d[i]; c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], escaped
		case c == '\\':
			escaped = true
			if i+1 >= len(d) {
				i++
				continue
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d) || !isHex(d[i+2]) || !isHex(d[i+3]) || !isHex(d[i+4]) || !isHex(d[i+5]) {
					s.pos = i
					s.fail("invalid \\u escape in string")
					return nil, false
				}
				i += 6
			default:
				s.pos = i
				s.fail("invalid escape %q in string", d[i+1])
				return nil, false
			}
		case c < 0x20:
			s.pos = i
			s.fail("invalid control character %q in string", c)
			return nil, false
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				escaped = true
			}
			i += size
		}
	}
	s.pos = len(d)
	s.fail("unterminated string")
	return nil, false
}

// ReadString consumes the next string and returns its unescaped value (any
// other value is an error): a sub-slice of the input when the string
// has no escapes, otherwise the scanner's buffer. Either way the bytes are
// valid until the next ReadString or Key.
func (s *Scanner) ReadString() []byte {
	raw, escaped := s.scanString()
	if !escaped {
		return raw
	}
	s.str = unquote(s.str[:0], raw)
	return s.str
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// hex4 decodes the four hex digits of a validated \u escape.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the value of validated string contents raw to dst, the
// way encoding/json unquotes: escapes decoded, surrogate pairs combined,
// and unpaired surrogates and invalid UTF-8 bytes replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(raw[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(raw[r+2:])); dec != unicode.ReplacementChar {
							r += 6
							dst = utf8.AppendRune(dst, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// KeyIs reports whether encoding/json would decode an object member with
// the (unescaped) key into a struct field tagged name, where name is
// ASCII: an exact match, or a match under Unicode simple case folding
// (bytes.EqualFold), so "ſ" (U+017F) matches 's' and "K" (U+212A, Kelvin)
// matches 'k'.
func KeyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	if len(key) < len(name) { // every rune folds to at most one name byte
		return false
	}
	i := 0
	for j := 0; j < len(key); i++ {
		r := rune(key[j])
		if r < utf8.RuneSelf {
			j++
		} else {
			var size int
			r, size = utf8.DecodeRune(key[j:])
			j += size
			// The smallest rune of r's fold orbit: an ASCII letter when
			// the orbit holds one.
			for {
				f := unicode.SimpleFold(r)
				if f <= r {
					r = f
					break
				}
				r = f
			}
		}
		if i >= len(name) || upperASCII(r) != upperASCII(rune(name[i])) {
			return false
		}
	}
	return i == len(name)
}

func upperASCII(r rune) rune {
	if r >= 'a' && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// ReadUint reads the next number the way encoding/json decodes it into an
// unsigned integer field of the given bit size: digits only (no sign,
// fraction or exponent), within range. Anything else is an error.
func (s *Scanner) ReadUint(bits int) uint64 {
	v, ok := parseUint(s.number(), bits)
	if !ok {
		s.fail("number out of range for uint%d", bits)
	}
	return v
}

// ReadInt reads the next number the way encoding/json decodes it into an
// int64 field: an optional minus sign and digits, within range.
func (s *Scanner) ReadInt() int64 {
	num := s.number()
	neg := len(num) > 0 && num[0] == '-'
	if neg {
		num = num[1:]
	}
	u, ok := parseUint(num, 64)
	switch {
	case !ok || neg && u > 1<<63 || !neg && u > math.MaxInt64:
		s.fail("number out of range for int64")
		return 0
	case neg:
		return int64(-u)
	}
	return int64(u)
}

// ReadFloat reads the next number the way encoding/json decodes it into a
// float64 field: strconv.ParseFloat, out of range an error.
func (s *Scanner) ReadFloat() float64 {
	num := s.number()
	if s.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		s.fail("number out of range for float64")
	}
	return f
}

func parseUint(num []byte, bits int) (uint64, bool) {
	if len(num) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if bits < 64 && v>>uint(bits) != 0 {
		return 0, false
	}
	return v, true
}

// Uint32s reads JSON arrays into a []uint32 field the way encoding/json
// does when the field appears more than once in one document: a later
// array overwrites the earlier one's elements in place, and a null element
// leaves the value already at its index — the earlier array's, or zero
// past what any earlier array wrote — while null for the whole field
// empties it. Reset it at the start of each document.
type Uint32s struct {
	v  []uint32
	n  int // the field's length
	hw int // v[hw:] is zero
}

// Reset empties the field.
func (u *Uint32s) Reset() {
	clear(u.v[:u.hw])
	u.n, u.hw = 0, 0
}

// Values returns the field's elements, valid until the next Read or Reset.
func (u *Uint32s) Values() []uint32 { return u.v[:u.n] }

// Read consumes the next value into the field, which is named what in
// errors: an array of numbers (or nulls), or null. Any other value is an
// error, left in the scanner.
func (u *Uint32s) Read(s *Scanner, what string) {
	switch s.Peek() {
	case Null:
		s.SkipNull()
		u.Reset()
		return
	case Array:
	default:
		s.Mismatch(what)
		return
	}
	s.Enter()
	i := 0
	for s.More() {
		if i == len(u.v) {
			u.v = append(u.v, 0)
		}
		switch s.Peek() {
		case Null:
			s.literal()
		case Number:
			u.v[i] = uint32(s.ReadUint(32))
		default:
			s.Mismatch(what)
			return
		}
		i++
		u.hw = max(u.hw, i)
	}
	u.n = i
}

// AppendString appends s as a JSON string literal. Only the characters
// JSON requires escaped ('"', '\\', controls) are escaped; invalid UTF-8
// is replaced with U+FFFD, as encoding/json does, so ReadString returns
// exactly s for valid UTF-8.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\':
				dst = append(dst, '\\', b)
			case b >= 0x20:
				dst = append(dst, b)
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, "�"...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}
