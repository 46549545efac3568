package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	rule    string
	message string
}

// String renders the driver's canonical "file:line:col: message [rule]"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.message, f.rule)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	path  string // import path
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	pkg   *types.Package

	// testFiles marks which source files are _test.go files, keyed by
	// the filename recorded in the FileSet.
	testFiles map[string]bool
}

// isTestFile reports whether the file at filename (as recorded in the
// FileSet) is a _test.go file.
func (p *Package) isTestFile(filename string) bool { return p.testFiles[filename] }

// position resolves a token.Pos against the package's FileSet.
func (p *Package) position(pos token.Pos) token.Position { return p.fset.Position(pos) }

// findingf appends a finding at pos.
func (p *Package) findingf(out *[]Finding, rule string, pos token.Pos, format string, args ...any) {
	*out = append(*out, Finding{Pos: p.position(pos), rule: rule, message: fmt.Sprintf(format, args...)})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	// skipTests excludes _test.go files: tests run under the Local
	// environment, where real time and real goroutines are the
	// environment rather than a violation of it.
	skipTests bool
	// allowedPaths are import-path prefixes (whole-segment match)
	// where the rule does not apply — the project policy baked into
	// the tool, e.g. walltime is legal inside repro/internal/cluster.
	allowedPaths []string
	// run checks one package; runProgram, set instead by a rule about
	// references between packages, sees every package at once.
	run        func(p *Package) []Finding
	runProgram func(pkgs []*Package) []Finding
}

// appliesTo reports whether the rule applies to a package path (i.e.
// the path is not under any allowed prefix).
func (a *Analyzer) appliesTo(path string) bool {
	for _, pre := range a.allowedPaths {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return false
		}
	}
	return true
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		wallTime(),
		nakedGo(),
		sentinelCmp(),
		ctxFlow(),
		lockedBlock(),
		deadExport(),
	}
}

// ByName resolves a comma-separated rule list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have %s)", n, ruleNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func ruleNames(as []*Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Check runs the analyzers over the packages, applying path policy,
// test-file policy and inline suppressions, and returns the surviving
// findings sorted by position.
func Check(pkgs []*Package, as []*Analyzer) []Finding {
	sup := make(suppressions)
	tests := make(map[string]bool)
	for _, p := range pkgs {
		sup.collect(p)
		for f := range p.testFiles {
			tests[f] = true
		}
	}
	var out []Finding
	for _, a := range as {
		var in []*Package
		for _, p := range pkgs {
			if a.appliesTo(p.path) {
				in = append(in, p)
			}
		}
		var found []Finding
		if a.runProgram != nil {
			found = a.runProgram(in)
		} else {
			for _, p := range in {
				found = append(found, a.run(p)...)
			}
		}
		for _, f := range found {
			if a.skipTests && tests[f.Pos.Filename] || sup.allows(f.Pos.Filename, f.Pos.Line, a.Name) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.rule < b.rule
	})
	return out
}

// ---------------------------------------------------------------------
// Inline suppression: `//bsfs-vet:allow rule1,rule2 -- reason`.

var allowRe = regexp.MustCompile(`^bsfs-vet:allow\s+([a-z,\s]+?)\s*(?:--.*)?$`)

// suppressions maps filename -> line -> set of silenced rules. A
// suppression comment covers its own line and the line directly below.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) allows(file string, line int, rule string) bool {
	lines, ok := s[file]
	if !ok {
		return false
	}
	return lines[line][rule]
}

// collect adds the suppression comments of p's files.
func (s suppressions) collect(p *Package) {
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := p.position(c.Pos())
				lines := s[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					s[pos.Filename] = lines
				}
				for _, r := range strings.Split(m[1], ",") {
					r = strings.TrimSpace(r)
					if r == "" {
						continue
					}
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = make(map[string]bool)
						}
						lines[ln][r] = true
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Shared type predicates.

// funcObj resolves the called function object of a call expression,
// looking through parentheses and selectors. It returns nil for calls
// through function-typed variables, conversions, and built-ins.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvNamed returns the package path and type name of a method's
// receiver base type ("" for functions and methods on unnamed types).
func recvNamed(f *types.Func) (pkgPath, typeName string) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// isNamed reports whether t is (a pointer to) the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return types.Implements(t, errorType) || types.Implements(types.NewPointer(t), errorType)
}
