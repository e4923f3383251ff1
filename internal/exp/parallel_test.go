package exp

import (
	"reflect"
	"sync"
	"testing"

	"voxel/internal/dash"
	"voxel/internal/qoe"
	"voxel/internal/trace"
)

// tracedCfg is a multi-trial configuration on a varying trace, the shape the
// determinism guarantee has to hold for (distinct shift + seed per trial).
func tracedCfg() Config {
	return Config{
		Title:          "BBB",
		System:         SysVoxel,
		BufferSegments: 3,
		Trace:          trace.TMobile(),
		Trials:         4,
		Segments:       6,
		Seed:           11,
	}
}

func TestParallelRunDeterminism(t *testing.T) {
	seq := tracedCfg()
	seq.Parallelism = 1
	a := Run(seq)

	for _, workers := range []int{4, -1} {
		par := tracedCfg()
		par.Parallelism = workers
		b := Run(par)
		if !reflect.DeepEqual(a.Trials, b.Trials) {
			t.Fatalf("Parallelism=%d: trial slices differ from sequential run", workers)
		}
		if !reflect.DeepEqual(a.BufRatios, b.BufRatios) ||
			!reflect.DeepEqual(a.Bitrates, b.Bitrates) ||
			!reflect.DeepEqual(a.AllScores, b.AllScores) {
			t.Fatalf("Parallelism=%d: aggregate slices differ from sequential run", workers)
		}
		if a.BufRatioP90() != b.BufRatioP90() || a.MeanScore() != b.MeanScore() {
			t.Fatalf("Parallelism=%d: summary statistics differ", workers)
		}
	}
}

func TestParallelismExceedingTrials(t *testing.T) {
	cfg := tracedCfg()
	cfg.Trials = 2
	cfg.Parallelism = 16 // more workers than jobs must clamp, not hang
	agg := Run(cfg)
	if len(agg.Trials) != 2 {
		t.Fatalf("%d trials, want 2", len(agg.Trials))
	}
}

func TestManifestForConcurrent(t *testing.T) {
	// Hammer the cache with same-key and different-key lookups at once; every
	// same-key caller must get the same pointer (single shared build), and
	// different keys must not alias.
	keys := []struct {
		title  string
		metric qoe.Metric
	}{
		{"BBB", qoe.SSIM},
		{"BBB", qoe.VMAF},
		{"ToS", qoe.SSIM},
	}
	const callers = 8
	got := make([][]*dash.Manifest, len(keys))
	var wg sync.WaitGroup
	for ki := range keys {
		got[ki] = make([]*dash.Manifest, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(ki, c int) {
				defer wg.Done()
				got[ki][c] = ManifestFor(keys[ki].title, keys[ki].metric, 4)
			}(ki, c)
		}
	}
	wg.Wait()
	for ki := range keys {
		for c := 1; c < callers; c++ {
			if got[ki][c] != got[ki][0] {
				t.Fatalf("key %d: caller %d got a different manifest pointer", ki, c)
			}
		}
	}
	if got[0][0] == got[1][0] || got[0][0] == got[2][0] {
		t.Fatal("distinct keys share a manifest")
	}
}
