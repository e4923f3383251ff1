// Command voxel-bench regenerates every table and figure of the paper's
// evaluation and prints them (optionally writing a Markdown results file
// consumed by EXPERIMENTS.md). Scale with -trials and -segments; the paper
// used 30 trials over 75-segment clips. -parallel fans trials out across
// worker goroutines; results are bit-identical at any worker count, and the
// -out file is a function of the flags alone (testdata/exhibits-quick.md is
// the -quick -trials 1 -segments 8 run).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"voxel/internal/exp"
	"voxel/internal/figures"
	"voxel/internal/profiling"
	"voxel/internal/sweep"
)

func main() {
	trials := flag.Int("trials", 5, "trials per experiment cell (paper: 30)")
	segments := flag.Int("segments", 25, "segments per clip (paper: 75)")
	quick := flag.Bool("quick", false, "reduced sweeps (fewer videos/buffers)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"concurrent trial workers per exhibit (1 = sequential; results are identical either way)")
	only := flag.String("only", "", "comma-separated exhibit IDs (e.g. Fig6,Fig10)")
	shardSpec := flag.String("shard", "",
		"run only exhibit shard i of n (\"i/n\"): the k-th selected exhibit runs when k ≡ i (mod n); every exhibit is deterministic on its own, so shard outputs concatenate")
	list := flag.Bool("list", false, "list exhibit IDs and exit")
	out := flag.String("out", "", "also write the tables to this Markdown file (flushed after each exhibit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voxel-bench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "voxel-bench: profile:", err)
		}
	}()

	if *list {
		for _, g := range figures.All() {
			fmt.Printf("%-14s %s\n", g.ID, g.Name)
		}
		return
	}

	params := figures.Params{
		Trials:      *trials,
		Segments:    *segments,
		Quick:       *quick,
		Seed:        1,
		Parallelism: *parallel,
	}.Defaults()

	var selected []figures.Generator
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			g, ok := figures.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "voxel-bench: unknown exhibit %q\n", id)
				os.Exit(1)
			}
			selected = append(selected, g)
		}
	} else {
		selected = figures.All()
	}
	if *shardSpec != "" {
		shard, err := sweep.ParseShard(*shardSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "voxel-bench:", err)
			os.Exit(1)
		}
		var mine []figures.Generator
		for k, g := range selected {
			if k%shard.Count == shard.Index {
				mine = append(mine, g)
			}
		}
		fmt.Printf("shard %s: %d of %d exhibits\n", shard, len(mine), len(selected))
		selected = mine
	}

	// Open the results file up front and flush after every exhibit, so an
	// interrupt or panic mid-sweep keeps everything finished so far.
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "voxel-bench:", err)
			os.Exit(1)
		}
		outFile = f
	}
	emit := func(s string) {
		if outFile == nil {
			return
		}
		if _, err := outFile.WriteString(s); err != nil {
			fmt.Fprintln(os.Stderr, "voxel-bench:", err)
			os.Exit(1)
		}
		outFile.Sync()
	}
	emit(fmt.Sprintf("# voxel-bench results\n\ntrials=%d segments=%d quick=%v\n\n",
		params.Trials, params.Segments, params.Quick))

	// The figure generators consume Aggregates internally, so trial failures
	// are collected through the exp.FailureHook side channel: every exhibit
	// still renders from its surviving trials, and the failures print at the
	// end with replay commands and a nonzero exit.
	var (
		failMu sync.Mutex
		failed []exp.TrialError
	)
	exp.FailureHook = func(te *exp.TrialError) {
		failMu.Lock()
		failed = append(failed, *te)
		failMu.Unlock()
	}

	start := time.Now()
	for _, g := range selected {
		t0 := time.Now()
		tab := g.Run(params)
		fmt.Print(tab.String())
		fmt.Printf("   [%s in %v]\n\n", g.ID, time.Since(t0).Round(time.Millisecond))
		var b strings.Builder
		writeMarkdown(&b, tab)
		emit(b.String())
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Second))

	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "voxel-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "\nvoxel-bench: %d trial(s) FAILED during the sweeps:\n", len(failed))
		for i := range failed {
			te := &failed[i]
			fmt.Fprintf(os.Stderr, "  trial %d (seed %d) at virtual %v: %s — %s\n",
				te.Trial, te.Seed, te.Clock, te.Rule, te.Msg)
			fmt.Fprintf(os.Stderr, "    replay: %s\n", te.ReplayCommand())
		}
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "voxel-bench: profile:", err)
		}
		os.Exit(1)
	}
}

func writeMarkdown(b *strings.Builder, t *figures.Table) {
	fmt.Fprintf(b, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(b, "| %s |\n", strings.Join(t.Header, " | "))
	fmt.Fprintf(b, "|%s\n", strings.Repeat("---|", len(t.Header)))
	for _, r := range t.Rows {
		b.WriteString("|")
		for _, c := range r {
			fmt.Fprintf(b, " %s |", c)
		}
		b.WriteString("\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(b, "\n*%s*\n", t.Notes)
	}
	fmt.Fprintln(b)
}
