package rpki

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/jsonscan"
	"artemis/internal/prefix"
)

// The export format shared by routinator, rpki-client and RIPE's validator:
//
//	{"roas": [{"asn": "AS13335", "prefix": "1.0.0.0/24", "maxLength": 24}]}
//
// with asn accepted as "AS13335", "13335" or a bare number.
//
// Parse decodes it on a jsonscan.Scanner, not by reflection, and accepts
// exactly the exports encoding/json accepts into
// struct{ROAs []struct{ASN; Prefix string; MaxLength int}} when the ASN
// type unmarshals its raw JSON text with parseASN, with the same ROAs;
// FuzzROAParse holds it to that reflection decoder, kept in the package's
// tests. encoding/json's quirks come along: a null leaves its field as it
// was, and a repeated "roas" member decodes its elements over the
// previous array's.

// roaObject is one ROA object as decoded so far. Its prefix is parsed
// where it is read: ok and err hold the verdict on the last "prefix"
// member; with neither set the object had none.
type roaObject struct {
	asn       bgp.ASN
	maxLength int
	prefix    prefix.Prefix
	ok        bool
	err       error
}

// parseASN reads an asn member from its JSON text: quotes trimmed, then an
// "AS" and an "as" prefix, then a decimal uint32.
func parseASN(raw []byte) (bgp.ASN, error) {
	s := bytes.Trim(raw, `"`)
	s = bytes.TrimPrefix(bytes.TrimPrefix(s, []byte("AS")), []byte("as"))
	v, err := strconv.ParseUint(string(s), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("rpki: bad asn %s", raw)
	}
	return bgp.ASN(v), nil
}

// Parse builds a table from a JSON ROA export.
func Parse(data []byte) (*Table, error) {
	roas, err := decodeExport(data)
	if err != nil {
		return nil, fmt.Errorf("rpki: parse export: %w", err)
	}
	t := NewTable()
	t.roas = make([]roaEntry, 0, len(roas))
	for i, r := range roas {
		if !r.ok {
			if r.err == nil {
				return nil, fmt.Errorf("rpki: roa %d: no prefix", i)
			}
			return nil, fmt.Errorf("rpki: roa %d: %w", i, r.err)
		}
		t.AddROA(ROA{Prefix: r.prefix, ASN: r.asn, MaxLength: r.maxLength})
	}
	return t, nil
}

// decodeExport decodes the export's ROA objects, prefixes unchecked.
func decodeExport(data []byte) ([]roaObject, error) {
	var sc jsonscan.Scanner
	sc.Reset(data)
	var roas []roaObject
	switch {
	case sc.SkipNull():
	case sc.Peek() != jsonscan.Object:
		return nil, sc.Mismatch("ROA export")
	default:
		sc.Enter()
		for sc.More() {
			if !jsonscan.KeyIs(sc.Key(), "roas") {
				sc.Skip()
				continue
			}
			var err error
			if roas, err = decodeROAs(&sc, roas); err != nil {
				return nil, err
			}
		}
	}
	return roas, sc.End()
}

// decodeROAs decodes the "roas" array over roas, as encoding/json decodes
// an array into a slice: element i decodes over roas[i] when there is
// one, the slice is cut to the array's length, and null or [] empties it.
func decodeROAs(sc *jsonscan.Scanner, roas []roaObject) ([]roaObject, error) {
	if sc.SkipNull() {
		return nil, nil
	}
	if sc.Peek() != jsonscan.Array {
		return nil, sc.Mismatch("roas")
	}
	sc.Enter()
	i := 0
	for ; sc.More(); i++ {
		if i < cap(roas) {
			roas = roas[:max(len(roas), i+1)]
		} else {
			roas = append(roas, roaObject{})
		}
		if sc.SkipNull() {
			continue
		}
		if sc.Peek() != jsonscan.Object {
			return nil, sc.Mismatch("ROA")
		}
		if err := decodeROA(sc, &roas[i]); err != nil {
			return nil, err
		}
	}
	if i == 0 {
		return nil, nil
	}
	return roas[:i], nil
}

// decodeROA decodes one ROA object's members over r.
func decodeROA(sc *jsonscan.Scanner, r *roaObject) error {
	sc.Enter()
	for sc.More() {
		switch key := sc.Key(); {
		case jsonscan.KeyIs(key, "asn"):
			asn, err := parseASN(sc.Raw())
			if err != nil {
				return err
			}
			r.asn = asn
		case jsonscan.KeyIs(key, "prefix"):
			if !sc.SkipNull() {
				r.prefix, r.err = prefix.ParseBytes(sc.ReadString())
				r.ok = r.err == nil
			}
		case jsonscan.KeyIs(key, "maxLength"):
			if !sc.SkipNull() {
				r.maxLength = int(sc.ReadInt())
			}
		default:
			sc.Skip()
		}
	}
	return nil
}

// LoadFile builds a table from a JSON export on disk.
func LoadFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// maxExportBytes bounds a fetched export (a full global export is ~100MB;
// the cap keeps a misbehaving endpoint from exhausting memory).
const maxExportBytes = 1 << 29

// Fetch builds a table from a REST endpoint serving the JSON export (e.g.
// a local routinator's /json). The client enforces the given timeout.
func Fetch(url string, timeout time.Duration) (*Table, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	cli := &http.Client{Timeout: timeout}
	resp, err := cli.Get(url)
	if err != nil {
		return nil, fmt.Errorf("rpki: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rpki: fetch %s: status %s", url, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxExportBytes))
	if err != nil {
		return nil, fmt.Errorf("rpki: fetch %s: %w", url, err)
	}
	return Parse(data)
}
