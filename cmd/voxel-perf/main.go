// Command voxel-perf runs the repo's performance benchmarks and records the
// results as machine-readable JSON (BENCH_<n>.json at the repo root), so the
// perf trajectory across PRs is durable instead of living in commit messages.
//
// It shells out to `go test -run=NONE -bench=... -benchmem` for each target
// package and parses the standard benchmark output, including custom metrics
// like Fig6's voxel_p90_bufratio_%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// target names one benchmark sweep: a package and a -bench regexp.
type target struct {
	Pkg   string
	Bench string
	Time  string // -benchtime; empty = default
}

var targets = []target{
	{Pkg: "voxel/internal/quic", Bench: "BenchmarkOnAck|BenchmarkAckRoundTrip32|BenchmarkDetectLoss|BenchmarkPacketEncode|BenchmarkBulkTransfer"},
	{Pkg: "voxel/internal/qoe", Bench: "."},
	// Everything in sim except the kernel suite, which the next target owns
	// (one result per (package, name): main refuses duplicates).
	{Pkg: "voxel/internal/sim", Bench: "BenchmarkScheduleRun"},
	// The kernel suite runs wheel and heap subbenchmarks back to back; a
	// fixed iteration count (not wall time) keeps the two sides and the
	// before/after trajectory comparable across machines.
	{Pkg: "voxel/internal/sim", Bench: "BenchmarkKernel|BenchmarkSwarmMacro", Time: "3000000x"},
	{Pkg: "voxel", Bench: "BenchmarkFig6BufRatio", Time: "1x"},
}

// result is one parsed benchmark line.
type result struct {
	Name     string             `json:"name"`
	Package  string             `json:"package"`
	Iters    int64              `json:"iterations"`
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op"`
	AllocsOp float64            `json:"allocs_op"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Benchmarks []result           `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_7.json", "output JSON path")
	benchtime := flag.String("benchtime", "",
		"override -benchtime for every target (e.g. 100000x or 100ms); useful for CI smoke runs")
	flag.Parse()

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, t := range targets {
		args := []string{"test", "-run=NONE", "-bench=" + t.Bench, "-benchmem", t.Pkg}
		switch {
		case *benchtime != "":
			args = append(args, "-benchtime="+*benchtime)
		case t.Time != "":
			args = append(args, "-benchtime="+t.Time)
		}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "voxel-perf: %s: %v\n", t.Pkg, err)
			os.Exit(1)
		}
		for _, line := range strings.Split(string(outBytes), "\n") {
			if r, ok := parseBenchLine(line, t.Pkg); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if dup, ok := firstDuplicate(rep.Benchmarks); ok {
		fmt.Fprintf(os.Stderr, "voxel-perf: %s %s ran under two targets; make their -bench patterns disjoint\n", dup.Package, dup.Name)
		os.Exit(1)
	}

	rep.Derived = deriveSpeedups(rep.Benchmarks)
	for _, k := range []string{"swarm_macro_speedup", "churn_speedup", "rearm_storm_speedup"} {
		if v, ok := rep.Derived[k]; ok {
			fmt.Printf("voxel-perf: %s = %.2fx\n", k, v)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "voxel-perf:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "voxel-perf:", err)
		os.Exit(1)
	}
	fmt.Printf("voxel-perf: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// firstDuplicate returns the first result whose (package, name) an earlier
// result already carries: two overlapping targets, whose numbers a reader
// of the ledger could not tell apart.
func firstDuplicate(results []result) (result, bool) {
	seen := map[[2]string]bool{}
	for _, r := range results {
		k := [2]string{r.Package, r.Name}
		if seen[k] {
			return r, true
		}
		seen[k] = true
	}
	return result{}, false
}

// deriveSpeedups computes heap-vs-wheel ratios for the kernel benchmarks
// that run both sides in one sweep, so the JSON carries the before/after
// comparison directly. Ratios are ns/op(heap) / ns/op(wheel); >1 means the
// wheel is faster.
func deriveSpeedups(results []result) map[string]float64 {
	ns := map[string]float64{}
	for _, r := range results {
		ns[r.Name] = r.NsOp
	}
	pairs := map[string]string{
		"swarm_macro_speedup": "BenchmarkSwarmMacro512",
		"churn_speedup":       "BenchmarkKernelChurn",
		"rearm_storm_speedup": "BenchmarkKernelRearmStorm",
		"cancel_speedup":      "BenchmarkKernelCancel",
	}
	derived := map[string]float64{}
	for key, base := range pairs {
		wheel, heap := ns[base+"/wheel"], ns[base+"/heap"]
		if wheel > 0 && heap > 0 {
			derived[key] = heap / wheel
		}
	}
	if len(derived) == 0 {
		return nil
	}
	return derived
}

// parseBenchLine parses one `go test -bench` output line:
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   0 allocs/op   1.2 custom_unit
func parseBenchLine(line, pkg string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Package: pkg, Iters: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsOp = v
		case "B/op":
			r.BOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, r.NsOp != 0
}
