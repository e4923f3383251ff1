package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: a package's non-test and
// in-package test files together, or an external _test package on its
// own (those carry the primary path plus a "_test" suffix).
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// IsTestFile reports whether the node sits in a _test.go file.
func (pkg *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}

// Loader parses and type-checks packages using only the standard
// library: imports (both stdlib and intra-module) resolve through the
// go/importer "source" importer, so the suite needs no dependency on
// golang.org/x/tools. The importer caches by path, so one Loader shared
// across many packages type-checks each dependency once.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader with a fresh file set and import cache.
// Module-mode import resolution shells out to the go command, so the
// process must run from inside the module.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// ListedPackage is the slice of `go list -json` output the loader and
// the voxel-vet fact cache consume.
type ListedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// List resolves package patterns (./..., import paths) via `go list`.
func List(patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(out)
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return pkgs, nil
}

// Units splits a listed package into analysis units: the primary unit
// (GoFiles + in-package TestGoFiles) and, when present, the external
// _test package.
func (l *Loader) Units(p *ListedPackage) ([]*Package, error) {
	var units []*Package
	if files := join(p.Dir, append(append([]string(nil), p.GoFiles...), p.TestGoFiles...)); len(files) > 0 {
		u, err := l.load(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if files := join(p.Dir, p.XTestGoFiles); len(files) > 0 {
		u, err := l.load(p.ImportPath+"_test", p.Dir, files)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// LoadDir loads every .go file in dir as a single package unit — the
// entry point for want-comment tests over testdata packages.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.load("testdata/"+filepath.Base(dir), dir, matches)
}

func (l *Loader) load(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Name: tpkg.Name(), Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

func join(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}
