package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/bgp/mrt"
	"artemis/internal/rib"
)

// glassMixed: the mix at GlassRate as an event-log archive the daemon
// replays on its recorded clock, a synthetic full-table snapshot to
// bootstrap from, ROA and AS-name files, and the lookup keys the read
// clients draw from.
func (b *builder) glassMixed() {
	perTick := GlassRate / int(time.Second/FastTick)
	ticks := b.seconds * int(time.Second/FastTick)
	var seq uint64
	for i := 0; i < ticks; i++ {
		// One collector flush per millisecond: the events of a tick share
		// an emission time and keep their own observation times.
		emitted := eventBase + time.Duration(i)*FastTick
		for j := 0; j < perTick; j++ {
			g := b.mix.next(1)
			g.Seen = emitted - time.Duration(perTick-j)*time.Microsecond
			b.observe(&g)
			b.in.Evlog = AppendEvlog(b.in.Evlog, &g, &seq, emitted)
		}
	}
	b.in.EvlogEvents = int(seq)

	var snap bytes.Buffer
	if err := rib.WriteSynth(&snap, rib.SynthConfig{V4: glassRIBv4, V6: glassRIBv6, Seed: b.in.Seed}); err != nil {
		panic(fmt.Sprintf("gen: synthesize RIB snapshot: %v", err))
	}
	b.in.RIB = snap.Bytes()
	keys := LookupKeys(b.in.RIB)
	rnd := rand.New(rand.NewSource(b.in.Seed ^ 0x6c6f6f6b))
	rnd.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > glassLookupKeys {
		keys = keys[:glassLookupKeys]
	}
	b.in.HotLookups, b.in.ColdLookups = keys[:glassHotKeys], keys[glassHotKeys:]

	b.in.ROAs = ROAs(keys)
	var names bytes.Buffer
	fmt.Fprintf(&names, "# asn,name,locale\n%d,BENCH-NET,ZZ\n", LegitOrigin)
	for _, k := range keys {
		fmt.Fprintf(&names, "%d,SYNTH-%d,ZZ\n", k.Origin, k.Origin)
	}
	b.in.ASNames = names.Bytes()
}

// ROAs renders a ROA export: the owned space under its legitimate
// origin, plus one ROA per lookup key, so every lookup answer carries the
// "valid" verdict the read clients check.
func ROAs(keys []Lookup) []byte {
	var roas bytes.Buffer
	fmt.Fprintf(&roas, `{"roas":[{"asn":"AS%d","prefix":"10.0.0.0/16","maxLength":28}`, LegitOrigin)
	fmt.Fprintf(&roas, `,{"asn":"AS%d","prefix":"2001:db8::/32","maxLength":48}`, LegitOrigin)
	for _, k := range keys {
		fmt.Fprintf(&roas, `,{"asn":"AS%d","prefix":%q,"maxLength":24}`, k.Origin, k.Query)
	}
	roas.WriteString("]}\n")
	return roas.Bytes()
}

// LookupKeys reads the snapshot back with the MRT codec and returns its
// v4 /24 entries with their origins. A /24 is the longest mask the
// synthetic table holds and lies outside every prefix the feed touches,
// so a lookup of one must answer with exactly that entry for the whole
// run.
func LookupKeys(snapshot []byte) []Lookup {
	var out []Lookup
	r := mrt.NewReader(bytes.NewReader(snapshot))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			panic(fmt.Sprintf("gen: read back RIB snapshot: %v", err))
		}
		e, ok := rec.(*mrt.RIBEntry)
		if !ok || e.Prefix.Is6() || e.Prefix.Bits() != 24 || len(e.Routes) != 1 {
			continue
		}
		path, ok := (&bgp.Update{Attrs: e.Routes[0].Attrs}).ASPath()
		if !ok || len(path) == 0 {
			continue
		}
		out = append(out, Lookup{Query: e.Prefix.String(), Origin: uint32(path[len(path)-1])})
	}
}

// hash digests every generated byte in a fixed order.
func (b *builder) hash() string {
	h := sha256.New()
	for _, ticks := range [][]Tick{b.in.Warm, b.in.Ticks} {
		for _, t := range ticks {
			fmt.Fprintf(h, "%d\n", t.At)
			h.Write(t.Data)
		}
	}
	for _, s := range b.in.Streams {
		h.Write(s.Greeting)
		h.Write(s.Block)
	}
	for _, part := range [][]byte{b.in.Evlog, b.in.RIB, b.in.ROAs, b.in.ASNames} {
		h.Write(part)
	}
	for _, keys := range [][]Lookup{b.in.HotLookups, b.in.ColdLookups} {
		for _, k := range keys {
			fmt.Fprintf(h, "%s %d\n", k.Query, k.Origin)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
