// Package analysis is voxel-vet: a static check of the one contract the
// repo's results rest on that no runtime test can see — determinism. Code a
// trial runs must not read wall clocks, process environment, or the global
// math/rand stream, and must not iterate maps in an order-dependent way:
// bit-identical aggregates across parallelism and shards depend on it, and
// any single run can hide an order dependence. (Allocation and pooling
// contracts are runtime tests, next to the code they pin; DESIGN.md §11.)
//
// The check is self-contained: it runs on the standard library's
// go/parser + go/types with the "source" importer, so the module stays
// dependency-free, and mirrors golang.org/x/tools' go/analysis in
// miniature (Pass, Diagnostic, want-comment tests) without importing it.
//
// One directive waives a finding: //voxel:det-ok <reason>, on the flagged
// line or the line above. The reason is mandatory and should say why
// wall-clock or unsorted iteration is sound at that site.
package analysis

// TrialRoot is the package that runs trials; the determinism rule gates
// its import closure.
const TrialRoot = "voxel/internal/sweep"

// TrialClosure returns the import paths the determinism rule gates: the
// module packages in TrialRoot's import closure, TrialRoot included.
// Packages outside it may use wall clocks freely (profiling, CLI glue).
func TrialClosure() (map[string]bool, error) {
	deps, err := List("-deps", TrialRoot)
	if err != nil {
		return nil, err
	}
	gated := map[string]bool{}
	for _, p := range deps {
		if !p.Standard {
			gated[p.ImportPath] = true
		}
	}
	return gated, nil
}

// Vet loads every package matching patterns that lies in the trial
// closure, its tests included, and returns the determinism findings.
func Vet(patterns ...string) ([]Diagnostic, error) {
	gated, err := TrialClosure()
	if err != nil {
		return nil, err
	}
	listed, err := List(patterns...)
	if err != nil {
		return nil, err
	}
	loader := NewLoader()
	var out []Diagnostic
	for _, lp := range listed {
		if !gated[lp.ImportPath] {
			continue
		}
		units, err := loader.Units(lp)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			out = append(out, Determinism(u)...)
		}
	}
	return out, nil
}
