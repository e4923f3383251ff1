package voxel

// One benchmark per table and figure of the paper. Each runs the shared
// generator from internal/figures in Quick mode (2 trials, 8-segment clips,
// reduced sweeps) so `go test -bench=.` regenerates every exhibit's shape
// in minutes; cmd/voxel-bench runs the full-size versions and records them
// in EXPERIMENTS.md. Benchmarks log their tables under -v and report a
// headline metric via b.ReportMetric.

import (
	"flag"
	"strconv"
	"strings"
	"testing"

	"voxel/internal/figures"
)

var (
	benchTrials   = flag.Int("figtrials", 0, "trials per experiment cell in figure benchmarks (0 = quick default)")
	benchSegments = flag.Int("figsegments", 0, "segments per clip in figure benchmarks (0 = quick default)")
	benchParallel = flag.Int("figparallel", 1, "concurrent trial workers in figure benchmarks (negative = GOMAXPROCS); tables are identical at any setting")
)

func benchParams() figures.Params {
	return figures.Params{
		Quick:       true,
		Trials:      *benchTrials,
		Segments:    *benchSegments,
		Seed:        1,
		Parallelism: *benchParallel,
	}.Defaults()
}

// runFigure executes a generator once per b.N iteration and logs its table.
func runFigure(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	gen, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var tab *figures.Table
	for i := 0; i < b.N; i++ {
		tab = gen.Run(benchParams())
	}
	b.Log("\n" + tab.String())
	if metricCol >= 0 && len(tab.Rows) > 0 {
		var sum float64
		var n int
		for _, r := range tab.Rows {
			if metricCol >= len(r) {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.Fields(r[metricCol])[0], "%"), 64)
			if err == nil {
				sum += v
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), metricName)
		}
	}
}

func BenchmarkTable1Videos(b *testing.B)  { runFigure(b, "Tab1", -1, "") }
func BenchmarkTable2Ladder(b *testing.B)  { runFigure(b, "Tab2", -1, "") }
func BenchmarkTable3YouTube(b *testing.B) { runFigure(b, "Tab3", -1, "") }
func BenchmarkFig1DropTolerance(b *testing.B) {
	runFigure(b, "Fig1", 3, "median_drop_%")
}
func BenchmarkFig1dLowQualitySSIM(b *testing.B) { runFigure(b, "Fig1d", 2, "median_ssim") }
func BenchmarkFig2aFramePositions(b *testing.B) { runFigure(b, "Fig2a", -1, "") }
func BenchmarkFig2bTailVsRanked(b *testing.B)   { runFigure(b, "Fig2b", 1, "ranked_median_%") }
func BenchmarkFig2cdVirtualLevels(b *testing.B) { runFigure(b, "Fig2cd", -1, "") }
func BenchmarkFig3VanillaABRBufRatio(b *testing.B) {
	runFigure(b, "Fig3", 5, "qstar_p90_bufratio_%")
}
func BenchmarkFig4VanillaABRBitrate(b *testing.B)   { runFigure(b, "Fig4", -1, "") }
func BenchmarkFig5CrossTrafficVanilla(b *testing.B) { runFigure(b, "Fig5", 4, "qstar_p90_bufratio_%") }
func BenchmarkFig6BufRatio(b *testing.B)            { runFigure(b, "Fig6", 5, "voxel_p90_bufratio_%") }
func BenchmarkFig7aMetricAgnostic(b *testing.B)     { runFigure(b, "Fig7a", 2, "voxel_ssim_bufratio_%") }
func BenchmarkFig7bcQoECDF(b *testing.B)            { runFigure(b, "Fig7bc", 3, "median_score") }
func BenchmarkFig7dDataSkipped(b *testing.B)        { runFigure(b, "Fig7d", 2, "skipped_%") }
func BenchmarkFig8Bitrate(b *testing.B)             { runFigure(b, "Fig8", -1, "") }
func BenchmarkFig9SSIMCDF(b *testing.B)             { runFigure(b, "Fig9", 3, "median_ssim") }
func BenchmarkFig10Ablation3G(b *testing.B)         { runFigure(b, "Fig10", 2, "mean_bufratio_%") }
func BenchmarkFig11Synthetic(b *testing.B)          { runFigure(b, "Fig11", 2, "mean_ssim") }
func BenchmarkFig11dInTheWild(b *testing.B)         { runFigure(b, "Fig11d", 3, "p90_bufratio_%") }
func BenchmarkFig12CrossTrafficVoxel(b *testing.B)  { runFigure(b, "Fig12", 3, "p90_bufratio_%") }
func BenchmarkFig14Survey(b *testing.B)             { runFigure(b, "Fig14", -1, "") }
func BenchmarkFig15SegmentBitrates(b *testing.B)    { runFigure(b, "Fig15", -1, "") }
func BenchmarkFig16LongQueue(b *testing.B)          { runFigure(b, "Fig16", 4, "voxel_p90_bufratio_%") }
func BenchmarkFig17UntunedVoxel(b *testing.B)       { runFigure(b, "Fig17", 3, "tuned_p90_bufratio_%") }
func BenchmarkFig18FCC(b *testing.B)                { runFigure(b, "Fig18ab", 3, "voxel_p90_bufratio_%") }
func BenchmarkFig18PartialReliability(b *testing.B) {
	runFigure(b, "Fig18cd", 4, "voxel_p90_bufratio_%")
}
func BenchmarkFig19YouTubeTolerance(b *testing.B) { runFigure(b, "Fig19", 1, "q12_median_drop_%") }
func BenchmarkFigB1DelayBasedCC(b *testing.B)     { runFigure(b, "FigB1", 3, "bbr_p90_bufratio_%") }
func BenchmarkSelectiveRetransmission(b *testing.B) {
	runFigure(b, "RetxResidual", 1, "residual_loss_%")
}
func BenchmarkReferencedFrameShares(b *testing.B) { runFigure(b, "RefShares", 1, "ref_share_%") }
