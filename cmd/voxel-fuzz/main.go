// Command voxel-fuzz runs the chaos fuzz campaign: randomized
// (configuration × impairment × seed) tuples swept through the full
// experiment stack with the cross-layer invariant checker and trial
// watchdog armed. The first failing tuple is automatically shrunk to a
// minimal JSON crash artifact, written to -out, and the process exits 1;
// a clean campaign exits 0.
//
//	voxel-fuzz -n 200 -seed 42 -out crash.json
//	go run ./cmd/voxel-sim -repro crash.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"voxel/internal/chaos"
)

func main() {
	n := flag.Int("n", 100, "number of random tuples to sweep")
	seed := flag.Int64("seed", 1, "campaign seed (the whole campaign is deterministic in it)")
	out := flag.String("out", "crash.json", "where to write the shrunk crash artifact on failure")
	quiet := flag.Bool("q", false, "suppress per-tuple progress lines")
	flag.Parse()

	var log io.Writer = os.Stdout
	if *quiet {
		log = nil
	}
	fmt.Printf("voxel-fuzz: sweeping %d tuples from seed %d (invariants + watchdog armed)\n", *n, *seed)
	artifact, te := chaos.Campaign(*n, *seed, log)
	if te == nil {
		fmt.Printf("voxel-fuzz: all %d tuples survived\n", *n)
		return
	}
	fmt.Printf("\nvoxel-fuzz: FAILURE %s — %s\n", te.Rule, te.Msg)
	b, err := artifact.Encode()
	if err == nil {
		err = os.WriteFile(*out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "voxel-fuzz:", err)
		os.Exit(1)
	}
	fmt.Printf("voxel-fuzz: shrunk artifact written to %s\n", *out)
	fmt.Printf("voxel-fuzz: replay with: go run ./cmd/voxel-sim -repro %s\n", *out)
	os.Exit(1)
}
