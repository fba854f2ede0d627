package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// locSlack is how far a line-count bound may sit above its count: a
// bound with more slack fails too, so a package that shrinks must lower
// its bound and none can loosen silently.
const locSlack = 50

// locTally is one gated directory's counts over its .go files: physical
// lines of non-test files (the gated figure, as wc -l counts them),
// those of them that are neither blank nor comment, and test lines.
type locTally struct{ lines, code, test int }

// checkLOC enforces a line-count gates file against the tree under the
// working directory. Each gate reads `<dir> lines <= N`: dir counts the
// .go files under it, and `*` those outside benchmark/. Hidden
// directories are skipped. Returns the number of violations.
func checkLOC(path string) (int, error) {
	gates, err := parseGates(path)
	if err != nil {
		return 0, err
	}
	tally := make([]locTally, len(gates))
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		lines, code := countLines(src)
		for i, g := range gates {
			dir, _, _ := strings.Cut(g.key, " ")
			if dir == "*" && strings.HasPrefix(p, "benchmark/") || dir != "*" && !strings.HasPrefix(p, dir+"/") {
				continue
			}
			if strings.HasSuffix(p, "_test.go") {
				tally[i].test += lines
			} else {
				tally[i].lines += lines
				tally[i].code += code
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	m := metrics{}
	for i, g := range gates {
		m[g.key] = float64(tally[i].lines)
		fmt.Printf("lines  %-24s %6d  code %6d  test %6d\n", g.key[:strings.IndexByte(g.key, ' ')], tally[i].lines, tally[i].code, tally[i].test)
	}
	violations := enforce(gates, m)
	for i, g := range gates {
		if slack := int(g.max) - tally[i].lines; slack > locSlack {
			fmt.Fprintf(os.Stderr, "GATE SLACK    %s = %d, bound %g leaves %d lines of slack (at most %d): lower it\n", g.key, tally[i].lines, g.max, slack, locSlack)
			violations++
		}
	}
	return violations, nil
}

// countLines returns src's physical lines, as wc -l counts them, and
// those that are neither blank nor comment.
func countLines(src []byte) (lines, code int) {
	inBlock := false
	for _, l := range bytes.Split(src, []byte("\n")) {
		t := bytes.TrimSpace(l)
		switch {
		case inBlock:
			inBlock = !bytes.Contains(t, []byte("*/"))
		case len(t) == 0 || bytes.HasPrefix(t, []byte("//")):
		case bytes.HasPrefix(t, []byte("/*")):
			inBlock = !bytes.Contains(t[2:], []byte("*/"))
		default:
			code++
		}
	}
	return bytes.Count(src, []byte("\n")), code
}
