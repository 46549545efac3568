package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts the expectation regexp from a `// want `...“ corpus
// comment.
var wantRe = regexp.MustCompile("want `([^`]+)`")

// expectation is one `// want` annotation: a finding with a message
// matching re must be reported on its line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the packages' comments for `// want` annotations,
// keyed by "filename:line".
func collectWants(t *testing.T, pkgs []*Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, p := range pkgs {
		collectPackageWants(t, p, wants)
	}
	return wants
}

func collectPackageWants(t *testing.T, p *Package, wants map[string][]*expectation) {
	t.Helper()
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", p.position(c.Pos()), m[1], err)
				}
				pos := p.position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], &expectation{re: re})
			}
		}
	}
}

// TestCorpus runs each analyzer over its golden corpus packages under
// testdata/src/<rule>/ (deadexport's has two: one declares, one uses)
// and checks the findings against the `// want`
// annotations: every annotated line must produce a matching finding,
// every finding must be annotated. The corpus includes suppression
// demos, so this also locks in the //bsfs-vet:allow behaviour.
func TestCorpus(t *testing.T) {
	l := NewLoader()
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := "./" + filepath.Join("testdata", "src", a.Name)
			pkgs, err := l.load(".", dir+"/...")
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, pkgs)
			if len(wants) == 0 {
				t.Fatalf("corpus %s has no want annotations", dir)
			}
			findings := Check(pkgs, []*Analyzer{a})
			if len(findings) == 0 {
				t.Errorf("corpus %s produced no findings; want %d annotated lines", dir, len(wants))
			}
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
				matched := false
				for _, w := range wants[key] {
					if !w.matched && w.re.MatchString(f.message) {
						w.matched, matched = true, true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for key, ws := range wants {
				for _, w := range ws {
					if !w.matched {
						t.Errorf("%s: no finding matched want `%s`", key, w.re)
					}
				}
			}
		})
	}
}

// TestRepositoryIsClean is the zero-baseline check: the full module,
// with the benchmark module as deadexport's extra caller, must pass the
// entire suite, so `go run ./cmd/bsfs-vet ./...` in CI
// can only break when a change introduces a real violation (or a
// deliberate, commented suppression is missing).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	l := NewLoader()
	pkgs, err := l.LoadRepository(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, f := range Check(pkgs, Analyzers()) {
		t.Errorf("%s", f)
	}
}
