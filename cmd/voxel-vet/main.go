// voxel-vet is the multichecker driver for the internal/analysis suite:
// it loads the requested packages (tests included), runs every analyzer
// that gates each package, and exits nonzero on any diagnostic. CI runs
// it as a hard gate next to go vet and staticcheck.
//
// Usage:
//
//	voxel-vet [packages]
//
// With no arguments it checks ./... .
package main

import (
	"flag"
	"fmt"
	"os"

	"voxel/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: voxel-vet [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	listed, err := analysis.List(patterns...)
	if err != nil {
		fatalf("%v", err)
	}
	loader := analysis.NewLoader()
	analyzers := analysis.Analyzers()
	bad := 0
	for _, lp := range listed {
		units, err := loader.Units(lp)
		if err != nil {
			fatalf("%v", err)
		}
		for _, u := range units {
			for _, d := range analysis.RunSuite(u, analyzers) {
				fmt.Println(d)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "voxel-vet: %d diagnostic(s)\n", bad)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "voxel-vet: "+format+"\n", args...)
	os.Exit(2)
}
