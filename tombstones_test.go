package xlupc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"strings"
	"testing"
)

// tombstone is one row of testdata/tombstones.txt.
type tombstone struct {
	line    int // where the row starts in the file
	name    string
	reason  string
	pattern *regexp.Regexp
	needles []string // every match contains one of them; nil: unknown
	paths   []string
	exclude []string
	allow   *regexp.Regexp // nil: no line is allowed
}

// TestTombstones fails on any line of a .go file of the tree that a row
// of testdata/tombstones.txt forbids: an identifier or shape the tree
// deleted coming back. Each row is a subtest named after the row.
func TestTombstones(t *testing.T) {
	rows, err := readTombstones("testdata/tombstones.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			hits, err := row.search()
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				t.Errorf("%s\n\ttestdata/tombstones.txt:%d (%s): %s", h, row.line, row.name, row.reason)
			}
		})
	}
}

// search returns every line under the row's paths that its pattern
// matches and its allow-list does not, as "path:line: text".
func (row *tombstone) search() ([]string, error) {
	var hits []string
	grep := func(path string) error {
		if !strings.HasSuffix(path, ".go") || row.excluded(filepath.Base(path), false) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil || !row.mayMatch(string(b)) {
			return err
		}
		rel := filepath.ToSlash(filepath.Clean(path))
		for i, text := range strings.Split(string(b), "\n") {
			if row.mayMatch(text) && row.pattern.MatchString(text) && (row.allow == nil || !row.allow.MatchString(rel+":"+text)) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(text)))
			}
		}
		return nil
	}
	for _, p := range row.paths {
		if strings.Contains(p, "*") {
			files, err := filepath.Glob(p)
			if err != nil {
				return nil, err
			}
			for _, f := range files {
				if err := grep(f); err != nil {
					return nil, err
				}
			}
			continue
		}
		err := filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case !d.IsDir():
				return grep(path)
			case path != p && (strings.HasPrefix(d.Name(), ".") || row.excluded(d.Name(), true)):
				return filepath.SkipDir
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", row.name, err)
		}
	}
	return hits, nil
}

// mayMatch reports whether text holds one of the row's needles, which
// any text its pattern matches does: a substring search spares the
// regular expression most files and lines.
func (row *tombstone) mayMatch(text string) bool {
	if row.needles == nil {
		return true
	}
	for _, n := range row.needles {
		if strings.Contains(text, n) {
			return true
		}
	}
	return false
}

// needles returns strings one of which every match of re contains, or
// nil when it cannot tell.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return needles(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min > 0 {
			return needles(re.Sub[0])
		}
	case syntax.OpConcat:
		// Any one operand's needles will do; take the longest shortest.
		var best []string
		for _, sub := range re.Sub {
			if n := needles(sub); n != nil && (best == nil || shortest(n) > shortest(best)) {
				best = n
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			all = append(all, n...)
		}
		return all
	}
	return nil
}

func shortest(ss []string) int {
	n := len(ss[0])
	for _, s := range ss[1:] {
		n = min(n, len(s))
	}
	return n
}

// excluded reports whether the row's exclude list names a directory (dir)
// or matches a file of this name.
func (row *tombstone) excluded(name string, dir bool) bool {
	for _, x := range row.exclude {
		if d, isDir := strings.CutSuffix(x, "/"); isDir {
			if dir && d == name {
				return true
			}
		} else if ok, _ := filepath.Match(x, name); ok && !dir {
			return true
		}
	}
	return false
}

// readTombstones parses the rows of a tombstones file: blocks of
// "key: value" lines separated by blank lines, a line that starts with
// whitespace continuing the value above it, # lines comments.
func readTombstones(path string) ([]*tombstone, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []*tombstone
	var fields map[string]string
	var key string
	start := 0
	end := func() error {
		if fields == nil {
			return nil
		}
		row, err := newTombstone(fields)
		if err != nil {
			return fmt.Errorf("%s:%d: %v", path, start, err)
		}
		row.line = start
		rows = append(rows, row)
		fields = nil
		return nil
	}
	for i, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.TrimSpace(line) == "":
			if err := end(); err != nil {
				return nil, err
			}
		case line[0] == ' ' || line[0] == '\t':
			if fields == nil {
				return nil, fmt.Errorf("%s:%d: a continuation line outside a row", path, i+1)
			}
			fields[key] += " " + strings.TrimSpace(line)
		default:
			k, v, ok := strings.Cut(line, ": ")
			if !ok {
				return nil, fmt.Errorf("%s:%d: want \"key: value\"", path, i+1)
			}
			if fields == nil {
				fields, start = map[string]string{}, i+1
			}
			if _, dup := fields[k]; dup {
				return nil, fmt.Errorf("%s:%d: %s given twice", path, i+1, k)
			}
			key, fields[k] = k, v
		}
	}
	if err := end(); err != nil {
		return nil, err
	}
	return rows, nil
}

func newTombstone(f map[string]string) (*tombstone, error) {
	for k := range f {
		switch k {
		case "name", "reason", "pattern", "paths", "exclude", "allow":
		default:
			return nil, fmt.Errorf("unknown key %q", k)
		}
	}
	if f["name"] == "" || f["reason"] == "" || f["pattern"] == "" || f["paths"] == "" {
		return nil, fmt.Errorf("a row needs a name, a reason, a pattern and paths")
	}
	row := &tombstone{name: f["name"], reason: f["reason"], paths: strings.Fields(f["paths"]), exclude: strings.Fields(f["exclude"])}
	var err error
	if row.pattern, err = regexp.Compile(f["pattern"]); err != nil {
		return nil, err
	}
	re, err := syntax.Parse(f["pattern"], syntax.Perl)
	if err != nil {
		return nil, err
	}
	row.needles = needles(re.Simplify())
	if a := f["allow"]; a != "" {
		if row.allow, err = regexp.Compile(a); err != nil {
			return nil, err
		}
	}
	return row, nil
}
