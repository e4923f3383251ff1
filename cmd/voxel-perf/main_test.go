package main

import "testing"

// TestFirstDuplicate: one (package, name) may appear once in a ledger — the
// same name in two packages is fine, the same pair twice is the overlap of
// two targets that every voxel-perf ledger since BENCH_7 carried silently.
func TestFirstDuplicate(t *testing.T) {
	rs := []result{
		{Package: "voxel/internal/sim", Name: "BenchmarkKernelChurn/wheel", Iters: 100},
		{Package: "voxel/internal/quic", Name: "BenchmarkKernelChurn/wheel"},
		{Package: "voxel/internal/sim", Name: "BenchmarkScheduleRun"},
	}
	if dup, ok := firstDuplicate(rs); ok {
		t.Fatalf("no duplicate in %v, got %v", rs, dup)
	}
	rs = append(rs, result{Package: "voxel/internal/sim", Name: "BenchmarkKernelChurn/wheel", Iters: 3000000})
	if dup, ok := firstDuplicate(rs); !ok || dup.Iters != 3000000 {
		t.Fatalf("duplicate not reported: %v %v", dup, ok)
	}
}
