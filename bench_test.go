package voxel

// One sub-benchmark per table and figure of the paper, in figures.All()
// order: BenchmarkExhibits/<ID> runs that exhibit's generator from
// internal/figures in Quick mode (2 trials, 8-segment clips, reduced sweeps)
// and logs its table under -v, so `go test -bench=.` regenerates every
// exhibit's shape in minutes and `-bench='BenchmarkExhibits/^Fig6$'` runs
// one. cmd/voxel-bench runs the full-size versions (`-only <ID>`) and
// records them in EXPERIMENTS.md.

import (
	"flag"
	"testing"

	"voxel/internal/figures"
)

var (
	benchTrials   = flag.Int("figtrials", 0, "trials per experiment cell in figure benchmarks (0 = quick default)")
	benchSegments = flag.Int("figsegments", 0, "segments per clip in figure benchmarks (0 = quick default)")
	benchParallel = flag.Int("figparallel", 1, "concurrent trial workers in figure benchmarks (negative = GOMAXPROCS); tables are identical at any setting")
)

func BenchmarkExhibits(b *testing.B) {
	params := figures.Params{
		Quick:       true,
		Trials:      *benchTrials,
		Segments:    *benchSegments,
		Seed:        1,
		Parallelism: *benchParallel,
	}.Defaults()
	for _, g := range figures.All() {
		b.Run(g.ID, func(b *testing.B) {
			var tab *figures.Table
			for i := 0; i < b.N; i++ {
				tab = g.Run(params)
			}
			b.Log("\n" + tab.String())
		})
	}
}
