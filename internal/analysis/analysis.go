// Package analysis is voxel-vet: a static-analysis suite that enforces,
// at compile time, the contracts the repo's results rest on and that were
// previously guarded only by runtime tests —
//
//   - determinism: sim-reachable packages must not read wall clocks,
//     process environment, or the global math/rand stream, and must not
//     iterate maps in an order-dependent way (bit-identical aggregates
//     across parallelism and shards depend on this);
//   - poolpair: values obtained from a freelist or sync.Pool getter must
//     be released through the matching put or handed off, never dropped;
//   - hotpath: functions annotated //voxel:allocfree reject constructs
//     known to allocate (fmt calls, capturing closures, value-to-interface
//     boxing, appends that can grow a fresh backing array).
//
// The suite is intentionally self-contained: it runs on the standard
// library's go/parser + go/types with the "source" importer, so the
// module stays dependency-free. The API mirrors golang.org/x/tools'
// go/analysis in miniature (Analyzer, Pass, Diagnostic, want-comment
// tests) without importing it.
//
// # Directives
//
//   - //voxel:allocfree          (func doc)  — arm the hotpath analyzer
//   - //voxel:pool-get put=f,g   (func doc)  — declare a pool getter and
//     its release functions for the poolpair analyzer
//   - //voxel:det-ok <reason>    (same line or line above) — waive one
//     determinism diagnostic; the reason is mandatory and should say why
//     wall-clock or unsorted iteration is sound at that site
package analysis

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		PoolPairAnalyzer,
		HotPathAnalyzer,
	}
}

// DeterministicPackages lists the sim-reachable import paths the
// determinism analyzer gates. Everything a trial world touches between
// seed and aggregate must be here; packages outside the list may use
// wall clocks freely (profiling, CLI glue).
var DeterministicPackages = []string{
	"voxel/internal/sim",
	"voxel/internal/netem",
	"voxel/internal/quic",
	"voxel/internal/httpsim",
	"voxel/internal/player",
	"voxel/internal/abr",
	"voxel/internal/cc",
	"voxel/internal/exp",
	"voxel/internal/sweep",
	"voxel/internal/obs",
	"voxel/internal/stats",
}
