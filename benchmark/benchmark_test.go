package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &spec
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables compiled into the benchmark in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
}

// TestSmoke runs every workload timed and traced at smoke scale (invariants
// armed) and checks what the benchmark promises about its own output.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	out := t.TempDir()
	set := &resultSet{Schema: 1, Seed: goldenSeed, Scale: "smoke"}
	for _, w := range workloads {
		var runs [2]*runResult
		for i, traced := range []bool{false, true} {
			var log bytes.Buffer
			res, err := run(runConfig{w: w, seed: goldenSeed, traced: traced, sc: scales["smoke"], outDir: out}, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			runs[i] = res

			// Every metric BENCHMARK.json names: once, finite, right unit.
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			printed := map[string]int{}
			for _, line := range strings.Split(log.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] != "#" {
					printed[f[0]]++
				}
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, traced, name, v, ok, unit)
				}
				if printed[name] != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times", w.name, traced, name, printed[name])
				}
			}
		}
		timed, traced := runs[0], runs[1]
		if timed.Digest != traced.Digest {
			t.Errorf("%s: traced digest %s != timed digest %s", w.name, traced.Digest, timed.Digest)
		}

		// The roll-up accounts for the CPU the profiled window burned: within
		// 5 %, or three 10 ms samples where a smoke window is that short.
		var rolled float64
		for _, l := range layers {
			rolled += traced.Metrics[l+".cpu_s"].Value
		}
		tol := math.Max(0.05*traced.ProfiledCPUS, 0.03)
		if math.Abs(rolled-traced.ProfiledCPUS) > tol {
			t.Errorf("%s: roll-up cpu_s sums to %.3f s, the profiled window's process CPU is %.3f s", w.name, rolled, traced.ProfiledCPUS)
		}
		// Allocation is sampled (one sample per 512 KiB), so a smoke round of
		// a few hundred samples only has to land near the exact figure.
		rolled = 0
		for _, l := range layers {
			rolled += traced.Metrics[l+".alloc_mb"].Value
		}
		if math.Abs(rolled-traced.ProfiledAllocMB) > 0.4*traced.ProfiledAllocMB {
			t.Errorf("%s: roll-up alloc_mb sums to %.1f MB, the profiled rounds allocated %.1f MB", w.name, rolled, traced.ProfiledAllocMB)
		}

		// Span tree: unique ids, every parent recorded earlier, every span closed.
		b, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 || spans[0].Name != w.name || spans[0].Parent != 0 {
			t.Fatalf("%s: trace does not start with the workload's root span", w.name)
		}
		for i, s := range spans {
			if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.EndNS < s.StartNS || s.Workload != w.name {
				t.Errorf("%s: bad span %+v at index %d", w.name, s, i)
			}
		}

		// A second run of the same inputs simulates to the same digest.
		again, err := run(runConfig{w: w, seed: goldenSeed, sc: scales["smoke"], outDir: out}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != timed.Digest {
			t.Errorf("%s: second run's digest %s != first run's %s", w.name, again.Digest, timed.Digest)
		}
		// Another seed reaches the inputs.
		other, err := run(runConfig{w: w, seed: goldenSeed + 1, sc: scales["smoke"], outDir: out}, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if other.Digest == timed.Digest {
			t.Errorf("%s: seed %d reproduced seed %d's digest", w.name, goldenSeed+1, goldenSeed)
		}
		set.Workloads = append(set.Workloads, combine(timed, traced))
	}

	// -compare: a set against itself passes; a slower, a simulated-drifted
	// and a failing copy each fail.
	write := func(name string, doctor func(*resultSet)) string {
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		var cp resultSet
		if err := json.Unmarshal(b, &cp); err != nil {
			t.Fatal(err)
		}
		doctor(&cp)
		if b, err = json.Marshal(&cp); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(out, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scaleMetric := func(name string, f float64) func(*resultSet) {
		return func(s *resultSet) {
			v := s.Workloads[1].EndToEnd[name]
			v.Value *= f
			s.Workloads[1].EndToEnd[name] = v
		}
	}
	base := write("base.json", func(*resultSet) {})
	for _, c := range []struct {
		name   string
		doctor func(*resultSet)
		want   int
	}{
		{"same.json", func(*resultSet) {}, 0},
		{"noise.json", scaleMetric("trials_per_s", 0.95), 0},
		{"slower.json", scaleMetric("trials_per_s", 0.5), 1},
		{"more-allocs.json", scaleMetric("allocs_per_trial", 1.05), 1},
		{"sim-drift.json", scaleMetric("score_mean", 1.0000001), 1},
		{"failing.json", func(s *resultSet) { s.Workloads[2].Failed = 1 }, 1},
		{"other-seed.json", func(s *resultSet) { s.Seed++ }, 2},
	} {
		var log bytes.Buffer
		if got := compareFiles(base, write(c.name, c.doctor), &log); got != c.want {
			t.Errorf("-compare base.json %s exited %d, want %d\n%s", c.name, got, c.want, log.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "voxel/internal/httpsim.(*Server).serve", "voxel/internal/quic.(*Conn).receive", "main.main"}, "httpsim"},
		{[]string{"runtime.mallocgc", "voxel/internal/exp.runPlans.func2", "runtime.goexit"}, "exp"},
		{[]string{"voxel/internal/sim.(*Sim).RunUntil", "voxel/internal/exp.runTrial"}, "sim"},
		{[]string{"voxel/internal/video.(*Video).synthesize", "voxel/internal/player.(*Player).fetch"}, "video"},
		{[]string{"encoding/xml.(*printer).EscapeString", "voxel/internal/dash.(*Manifest).EncodeMPD", "voxel/internal/server.New"}, "dash"},
		{[]string{"voxel/internal/trace.(*Trace).Shifted", "voxel/internal/exp.buildPath"}, "other"},
		{[]string{"crypto/sha256.block", "main.hashFloats", "main.main"}, "other"},
		{[]string{"voxel.(*Session).Run", "main.main"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
