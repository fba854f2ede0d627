// Package eventlog defines the canonical interchange form for
// feedtypes.Event — a bgpipe-style JSON envelope, one event per line —
// and the machinery built on it: an allocation-free encoder, a stream
// decoder (allocation-free too when it decodes into a Batch), and a
// rotating file Recorder that archives the post-dedup event stream off
// the hot path (recorder.go).
//
// # The envelope
//
// Each line is a six-element JSON array, in the style of bgpipe's
// message form (see docs/INTERCHANGE.md for the field-by-field table):
//
//	["R", seq, time, type, data, meta]
//
//	[0] dir   "R" — received from monitoring (reserved for future use)
//	[1] seq   monotonic uint64, assigned per stream
//	[2] time  event time: EmittedAt as integer nanoseconds of sim time
//	[3] type  "announce" | "withdraw"
//	[4] data  {"prefix": "...", "vp": asn, "path": [asn, ...]}
//	[5] meta  {"src": "...", "col": "...", "seen": nanoseconds}
//
// Integer nanoseconds (not wall-clock strings) keep the encoder
// allocation-free and the event-time clocks exact across record→replay:
// dedup TTLs and tenant quotas run on event time, so a replayed
// incident reproduces the live run bit for bit.
package eventlog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/jsonscan"
	"artemis/internal/prefix"
)

// MaxLineLen bounds one encoded event line; a line is one prefix plus
// one AS path, so even pathological paths stay far below this.
const MaxLineLen = 1 << 20

// Record is one sequenced event: what one envelope line carries.
type Record struct {
	Seq   uint64
	Event feedtypes.Event
}

// AppendRecord appends r's envelope line (including the trailing
// newline) to dst and returns the extended slice. It performs no
// allocations when dst has capacity.
func AppendRecord(dst []byte, r Record) []byte {
	ev := &r.Event
	dst = append(dst, `["R",`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(ev.EmittedAt), 10)
	if ev.Kind == feedtypes.Withdraw {
		dst = append(dst, `,"withdraw",`...)
	} else {
		dst = append(dst, `,"announce",`...)
	}
	dst = append(dst, `{"prefix":"`...)
	dst = ev.Prefix.AppendText(dst)
	dst = append(dst, `","vp":`...)
	dst = strconv.AppendUint(dst, uint64(ev.VantagePoint), 10)
	dst = append(dst, `,"path":[`...)
	for i, asn := range ev.Path {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(asn), 10)
	}
	dst = append(dst, `]},{"src":`...)
	dst = jsonscan.AppendString(dst, ev.Source)
	dst = append(dst, `,"col":`...)
	dst = jsonscan.AppendString(dst, ev.Collector)
	dst = append(dst, `,"seen":`...)
	dst = strconv.AppendInt(dst, int64(ev.SeenAt), 10)
	dst = append(dst, '}', ']', '\n')
	return dst
}

// decoder decodes envelope lines on a jsonscan.Scanner. It accepts exactly
// the lines encoding/json accepts into the reference structs kept in the
// package's tests, and returns the same records; FuzzEventJSON holds it
// to that. The zero value is ready to use, and its scratch space is
// reused, so decoding into a Batch allocates nothing once it has grown.
type decoder struct {
	sc   jsonscan.Scanner
	path jsonscan.Uint32s
	// src and col hold the meta strings of the line being decoded; strs
	// interns them for events decoded into a batch.
	src, col []byte
	pfx      []byte
	strs     feedtypes.Interner
}

// batch decodes one envelope line and appends its event to b: the path in
// b's arena, the source and collector names interned, so both stay valid
// as long as b's events do. It returns the record's sequence number.
func (d *decoder) batch(line []byte, b *feedtypes.Batch) (uint64, error) {
	var ev feedtypes.Event
	seq, err := d.fields(line, &ev)
	if err != nil {
		return 0, err
	}
	if n := len(d.path.Values()); n > 0 {
		ev.Path = d.copyPath(b.NewPath(n))
	}
	ev.Source, ev.Collector = d.strs.Intern(d.src), d.strs.Intern(d.col)
	b.Append(ev)
	return seq, nil
}

// ParseRecord decodes one envelope line (with or without the trailing
// newline) into a record that owns its path and strings.
func ParseRecord(line []byte) (Record, error) {
	var d decoder
	return d.record(line)
}

// record decodes one envelope line into a record that owns its path and
// strings.
func (d *decoder) record(line []byte) (Record, error) {
	var r Record
	seq, err := d.fields(line, &r.Event)
	if err != nil {
		return Record{}, err
	}
	r.Seq = seq
	if n := len(d.path.Values()); n > 0 {
		r.Event.Path = d.copyPath(make([]bgp.ASN, n))
	}
	r.Event.Source, r.Event.Collector = string(d.src), string(d.col)
	return r, nil
}

// copyPath fills dst, as long as the decoded path, with it.
func (d *decoder) copyPath(dst []bgp.ASN) []bgp.ASN {
	for i, as := range d.path.Values() {
		dst[i] = bgp.ASN(as)
	}
	return dst
}

// fields reads line into ev, all but its path and strings, which it
// leaves in d.path, d.src and d.col. A null element or member leaves its
// field zero, as encoding/json does.
func (d *decoder) fields(line []byte, ev *feedtypes.Event) (seq uint64, err error) {
	sc := &d.sc
	d.path.Reset()
	d.src, d.col, d.pfx = d.src[:0], d.col[:0], d.pfx[:0]
	sc.Reset(line)
	if sc.Peek() != jsonscan.Array {
		return 0, fmt.Errorf("eventlog: %w", sc.Mismatch("envelope"))
	}
	var dirOK, typOK bool
	var typ feedtypes.Kind
	var emitted, seen int64
	var vp uint32
	sc.Enter()
	n := 0
	for ; sc.More(); n++ {
		if sc.SkipNull() {
			continue
		}
		switch n {
		case 0: // dir
			dirOK = string(sc.ReadString()) == "R"
		case 1: // seq
			seq = sc.ReadUint(64)
		case 2: // time
			emitted = sc.ReadInt()
		case 3: // type
			switch string(sc.ReadString()) {
			case "announce":
				typ, typOK = feedtypes.Announce, true
			case "withdraw":
				typ, typOK = feedtypes.Withdraw, true
			}
		case 4: // data
			if sc.Peek() != jsonscan.Object {
				sc.Mismatch("envelope data")
				break
			}
			sc.Enter()
			for sc.More() {
				switch key := sc.Key(); {
				case jsonscan.KeyIs(key, "prefix"):
					if !sc.SkipNull() {
						d.pfx = append(d.pfx[:0], sc.ReadString()...)
					}
				case jsonscan.KeyIs(key, "vp"):
					if !sc.SkipNull() {
						vp = uint32(sc.ReadUint(32))
					}
				case jsonscan.KeyIs(key, "path"):
					d.path.Read(sc, "path")
				default:
					sc.Skip()
				}
			}
		case 5: // meta
			if sc.Peek() != jsonscan.Object {
				sc.Mismatch("envelope meta")
				break
			}
			sc.Enter()
			for sc.More() {
				switch key := sc.Key(); {
				case jsonscan.KeyIs(key, "src"):
					if !sc.SkipNull() {
						d.src = append(d.src[:0], sc.ReadString()...)
					}
				case jsonscan.KeyIs(key, "col"):
					if !sc.SkipNull() {
						d.col = append(d.col[:0], sc.ReadString()...)
					}
				case jsonscan.KeyIs(key, "seen"):
					if !sc.SkipNull() {
						seen = sc.ReadInt()
					}
				default:
					sc.Skip()
				}
			}
		default:
			sc.Skip()
		}
	}
	if err := sc.End(); err != nil {
		return 0, fmt.Errorf("eventlog: %w", err)
	}
	switch {
	case n != 6:
		return 0, fmt.Errorf("eventlog: envelope has %d elements, want 6", n)
	case !dirOK:
		return 0, fmt.Errorf("eventlog: unknown direction")
	case !typOK:
		return 0, fmt.Errorf("eventlog: unknown event type")
	}
	p, err := prefix.ParseBytes(d.pfx)
	if err != nil {
		return 0, fmt.Errorf("eventlog: %w", err)
	}
	*ev = feedtypes.Event{
		VantagePoint: bgp.ASN(vp),
		Kind:         typ,
		Prefix:       p,
		SeenAt:       time.Duration(seen),
		EmittedAt:    time.Duration(emitted),
	}
	return seq, nil
}

// Writer encodes events to an io.Writer, assigning a monotonic
// sequence. It buffers one batch at a time in a reused scratch buffer,
// so a WriteBatch is one underlying Write call and zero allocations at
// steady state.
type Writer struct {
	w   io.Writer
	seq uint64
	buf []byte
}

// NewWriter returns a Writer whose first record has sequence 0.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Seq returns the sequence number the next record will be assigned.
func (w *Writer) Seq() uint64 { return w.seq }

// WriteBatch encodes evs as consecutive records and writes them with a
// single underlying Write.
func (w *Writer) WriteBatch(evs []feedtypes.Event) error {
	if len(evs) == 0 {
		return nil
	}
	w.buf = w.buf[:0]
	for i := range evs {
		w.buf = AppendRecord(w.buf, Record{Seq: w.seq, Event: evs[i]})
		w.seq++
	}
	_, err := w.w.Write(w.buf)
	return err
}

// WriteEvent encodes one event.
func (w *Writer) WriteEvent(ev feedtypes.Event) error {
	return w.WriteBatch([]feedtypes.Event{ev})
}

// Reader decodes an envelope stream line by line.
type Reader struct {
	s *bufio.Scanner
	d decoder
}

// NewReader wraps r. Lines beyond MaxLineLen are an error.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), MaxLineLen)
	return &Reader{s: s}
}

// Next returns the next record, or io.EOF at a clean end of stream. The
// record owns its path and strings. Blank lines are skipped so
// concatenated segment files read cleanly.
func (r *Reader) Next() (Record, error) {
	line, err := r.line()
	if err != nil {
		return Record{}, err
	}
	return r.d.record(line)
}

// NextInto appends the next record's event to b and returns its sequence
// number, or io.EOF at a clean end of stream. The event's path lives in
// b's arena and its source and collector names are shared with earlier
// events, so once b has grown this allocates nothing; the event is valid
// as long as b's events are.
func (r *Reader) NextInto(b *feedtypes.Batch) (uint64, error) {
	line, err := r.line()
	if err != nil {
		return 0, err
	}
	return r.d.batch(line, b)
}

// line returns the next non-blank line.
func (r *Reader) line() ([]byte, error) {
	for r.s.Scan() {
		if line := r.s.Bytes(); len(line) > 0 {
			return line, nil
		}
	}
	if err := r.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}
