package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voxel/internal/exp"
)

// FuzzLoadCheckpoint: a checkpoint file is outside input. Whatever bytes
// arrive, loading never panics; a file that loads passes validate,
// re-marshals to bytes that load and marshal to themselves, merges without
// a panic, and can never be merged with itself — two files claiming the
// same trials are refused, not double-counted.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	cfg := testCfg()
	cfg.Trials, cfg.Segments, cfg.Telemetry, cfg.TimelineCap = 2, 4, true, 4 // small seeds mutate fast
	for _, seed := range []struct {
		name string
		cfg  exp.Config
		opts Options
	}{
		{"exact.json", cfg, Options{}},
		{"fail.json", exp.Config{Title: "BBB", Trials: 2, Segments: 4, Inject: "panic@1"}, Options{}},
		{"stream.json", exp.Config{Title: "BBB", Trials: 2, Segments: 4}, Options{Stream: true}},
	} {
		seed.opts.Checkpoint = filepath.Join(dir, seed.name)
		if _, err := Run(seed.cfg, seed.opts); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(seed.opts.Checkpoint)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	artifact, err := os.ReadFile("../../testdata/repro/injected-invariant.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(artifact)
	path := filepath.Join(dir, "fuzzed.json")
	f.Fuzz(func(t *testing.T, in []byte) {
		cp, err := parseCheckpoint(in)
		if err != nil {
			return
		}
		if err := cp.validate(); err != nil {
			t.Fatalf("loaded checkpoint does not validate: %v", err)
		}
		out, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("loaded checkpoint does not marshal: %v", err)
		}
		again, err := parseCheckpoint(out)
		if err != nil {
			t.Fatalf("re-marshalled checkpoint does not load: %v\n%s", err, out)
		}
		if out2, _ := json.Marshal(again); !bytes.Equal(out, out2) {
			t.Fatalf("checkpoint bytes are not a fixed point of load → marshal:\n%s\n%s", out, out2)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		_, single := MergeFiles([]string{path})
		_, double := MergeFiles([]string{path, path})
		switch {
		case len(cp.Done) == 0:
		case double == nil:
			t.Fatalf("a file holding trials %v merged with itself", cp.Done)
		case single == nil && !strings.Contains(double.Error(), "already loaded"):
			t.Fatalf("self-merge refused for the wrong reason: %v", double)
		}
	})
}
