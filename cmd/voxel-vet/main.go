// voxel-vet is the driver for the internal/analysis determinism rule: it
// loads the requested packages that lie in the trial import closure (tests
// included), checks each, and exits nonzero on any diagnostic. CI runs it
// as a hard gate next to go vet and staticcheck.
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
		fmt.Fprintf(os.Stderr, "usage: voxel-vet [packages]\n\n"+
			"Forbids wall clocks, env reads, global rand and order-dependent map\n"+
			"iteration in the packages %s imports.\n", analysis.TrialRoot)
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Vet(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "voxel-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "voxel-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
