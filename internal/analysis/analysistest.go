package analysis

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// RunTest loads the testdata package in dir, runs the determinism rule over
// it, and checks the findings against `// want "regexp"` comments, in the
// style of golang.org/x/tools' analysistest: every diagnostic must match
// a want on its line, and every want must be matched by exactly one
// diagnostic. A line may carry several quoted regexps when several
// diagnostics land on it.
func RunTest(t *testing.T, dir string) {
	t.Helper()
	pkg, err := NewLoader().LoadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	matched := map[*regexp.Regexp]bool{}
	for _, d := range Determinism(pkg) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		i := slices.IndexFunc(wants[key], func(re *regexp.Regexp) bool { return !matched[re] && re.MatchString(d.Message) })
		if i < 0 {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		matched[wants[key][i]] = true
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, re := range wants[k] {
			if !matched[re] {
				t.Errorf("no diagnostic at %s matched %q", k, re)
			}
		}
	}
}

// collectWants parses `// want "..."` comments, keyed by file:line.
func collectWants(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want clause near %q (expected quoted regexp)", key, rest)
					}
					s, _ := strconv.Unquote(q)
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, s, err)
					}
					out[key] = append(out[key], re)
					rest = rest[len(q):]
				}
			}
		}
	}
	return out
}
