package kshot

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRefFiles are the documents that tell a reader which test,
// benchmark, fuzz target or example to run. CHANGES.md and ROADMAP.md
// are history: they name what was, so they are not checked.
var docRefFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// testFuncDecl matches a gofmt'd top-level test function declaration.
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	// docTestRef matches a test-function name in code text; a trailing
	// `*` makes it a prefix.
	docTestRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*\*?`)
	// runPattern matches a go test -run or -bench pattern, which go
	// test matches unanchored: the names in it are prefixes.
	runPattern = regexp.MustCompile(`-(?:run|bench)[ =]+('[^']*'|"[^"]*"|\S+)`)
)

// TestDocTestReferences fails, with file:line, on every Test…,
// Benchmark…, Fuzz… or Example… name that the docs quote in code
// (a `span` or a fenced block) and no _test.go in the repo declares
// (benchmark/ included), so a deleted or renamed test cannot stay
// cited as the way to reproduce a result. A name ending in `*`, or
// inside a -run or -bench pattern, stands for every test it prefixes
// and needs one of them.
func TestDocTestReferences(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no test declarations")
	}
	isDeclared := func(ref string) bool {
		prefix, ok := strings.CutSuffix(ref, "*")
		if !ok {
			return declared[ref]
		}
		for name := range declared {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for _, file := range docRefFiles {
		md, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range codeTestRefs(string(md)) {
			if !isDeclared(ref.name) {
				t.Errorf("%s:%d: `%s` is declared in no _test.go", file, ref.line, ref.name)
			}
		}
	}
}

type docTestName struct {
	name string
	line int
}

// codeTestRefs returns the test-function names that appear in md's
// code: fenced blocks and inline spans. An inline span may wrap onto
// the next line but, as in Markdown, ends at a blank line.
func codeTestRefs(md string) []docTestName {
	var refs []docTestName
	fenced, inSpan := false, false
	for i, line := range strings.Split(md, "\n") {
		var code []string
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
			continue
		case fenced:
			code = []string{line}
		case strings.TrimSpace(line) == "":
			inSpan = false
		default:
			for j, part := range strings.Split(line, "`") {
				if j > 0 {
					inSpan = !inSpan
				}
				if inSpan {
					code = append(code, part)
				}
			}
		}
		for _, c := range code {
			for _, pat := range runPattern.FindAllString(c, -1) {
				for _, name := range docTestRef.FindAllString(pat, -1) {
					refs = append(refs, docTestName{strings.TrimSuffix(name, "*") + "*", i + 1})
				}
			}
			c = runPattern.ReplaceAllString(c, "")
			for _, name := range docTestRef.FindAllString(c, -1) {
				refs = append(refs, docTestName{name, i + 1})
			}
		}
	}
	return refs
}
