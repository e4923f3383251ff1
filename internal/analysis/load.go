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
	"slices"
	"strings"
)

// Package is one type-checked analysis unit: a package's non-test and
// in-package test files together, or an external _test package on its
// own (those carry the primary path plus a "_test" suffix).
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// IsTestFile reports whether the node sits in a _test.go file.
func (pkg *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}

// Loader parses and type-checks packages using only the standard
// library: imports (both stdlib and intra-module) resolve through the
// go/importer "source" importer, so the check needs no dependency on
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

// ListedPackage is the slice of `go list -json` output the loader
// consumes.
type ListedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// List resolves package patterns (./..., import paths), and any go list
// flags among them (-deps), via `go list -json`.
func List(patterns ...string) ([]*ListedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
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
	for _, u := range []struct {
		path  string
		names []string
	}{
		{p.ImportPath, slices.Concat(p.GoFiles, p.TestGoFiles)},
		{p.ImportPath + "_test", p.XTestGoFiles},
	} {
		if len(u.names) == 0 {
			continue
		}
		files := make([]string, len(u.names))
		for i, n := range u.names {
			files[i] = filepath.Join(p.Dir, n)
		}
		pkg, err := l.load(u.path, files)
		if err != nil {
			return nil, err
		}
		units = append(units, pkg)
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
	slices.Sort(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.load("testdata/"+filepath.Base(dir), matches)
}

func (l *Loader) load(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	if _, err := conf.Check(path, l.Fset, files, info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: l.Fset, Files: files, Info: info}, nil
}
