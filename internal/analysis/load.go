package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Loader parses and type-checks packages. One Loader shares a FileSet
// and a source importer across loads, so the (expensive) from-source
// compilation of the standard library and of intra-module dependencies
// happens once per process.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader backed by the stdlib source importer —
// the only importer that works in this zero-dependency, offline
// module (there is no golang.org/x/tools and no pre-compiled export
// data to rely on).
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	CgoFiles    []string
	TestGoFiles []string
	// XTestGoFiles (package foo_test) are listed but not analyzed:
	// they may reference identifiers declared in in-package test
	// files, which the source importer cannot see. The repository has
	// none; load fails loudly if one appears so the gap is never
	// silent.
	XTestGoFiles []string
}

// load enumerates packages matching the patterns (relative to dir,
// e.g. "./...") via `go list -json`, then parses and type-checks each
// one including its in-package _test.go files.
func (l *Loader) load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		listed = append(listed, lp)
	}
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.XTestGoFiles) > 0 {
			return nil, fmt.Errorf("%s: external test package (package %s_test) is not supported by the loader; move %s in-package",
				lp.ImportPath, filepath.Base(lp.ImportPath), strings.Join(lp.XTestGoFiles, ", "))
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		if len(lp.GoFiles)+len(lp.TestGoFiles) == 0 {
			continue
		}
		files := make([]string, 0, len(lp.GoFiles)+len(lp.TestGoFiles))
		tests := make(map[string]bool, len(lp.TestGoFiles))
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		for _, f := range lp.TestGoFiles {
			abs := filepath.Join(lp.Dir, f)
			files = append(files, abs)
			tests[abs] = true
		}
		p, err := l.loadFiles(lp.ImportPath, files, tests)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// perfModule is the benchmark's directory. It is a module of its own,
// so ./... does not reach it, yet the names it uses are callers.
const perfModule = "cmd/bsfs-perf"

// LoadRepository loads the packages matching patterns in the module
// rooted at root, plus the benchmark module under it.
func (l *Loader) LoadRepository(root string, patterns ...string) ([]*Package, error) {
	pkgs, err := l.load(root, patterns...)
	if err != nil {
		return nil, err
	}
	perf, err := l.load(filepath.Join(root, perfModule), ".")
	if err != nil {
		return nil, err
	}
	return append(pkgs, perf...), nil
}

func (l *Loader) loadFiles(importPath string, files []string, tests map[string]bool) (*Package, error) {
	asts := make([]*ast.File, 0, len(files))
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", f, err)
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	tpkg, err := conf.Check(importPath, l.fset, asts, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-check %s:\n  %s", importPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", importPath, err)
	}
	return &Package{
		path:      importPath,
		fset:      l.fset,
		files:     asts,
		info:      info,
		pkg:       tpkg,
		testFiles: tests,
	}, nil
}
