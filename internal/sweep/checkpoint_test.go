package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"voxel/internal/exp"
)

// wholeMarshal is the definition of checkpoint format version 1: the fully
// populated Checkpoint through json.Marshal, and a newline. WriteFile no
// longer produces its bytes that way; these tests hold it to them.
func wholeMarshal(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// canonical checks that a file is what marshalling its own content gives:
// member order, omitted members and record encoding are the format's.
func canonical(t *testing.T, what, path string) []byte {
	t.Helper()
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	b := readFile(t, path)
	if !bytes.Equal(b, wholeMarshal(t, cp)) {
		t.Fatalf("%s: file bytes are not json.Marshal of the checkpoint they hold", what)
	}
	return b
}

func TestCheckpointBytesMatchWholeMarshal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, telemetry := range []bool{false, true} {
		for _, every := range []int{1, 3, 8} {
			name := fmt.Sprintf("telemetry=%v every=%d", telemetry, every)
			cfg := testCfg()
			cfg.Trials, cfg.Segments, cfg.Telemetry, cfg.Inject = 10, 4, telemetry, "panic@2"
			d := cfg.WithDefaults()

			// Every write of a run, against the state it was taken from.
			p, err := newProgress(header(d, false), func() (exp.Config, error) { return d, nil })
			if err != nil {
				t.Fatal(err)
			}
			writes := 0
			write := func() {
				cp := p.checkpoint()
				if err := cp.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				if writes++; !bytes.Equal(readFile(t, path), wholeMarshal(t, cp)) {
					t.Fatalf("%s: write %d (%d trials done) is not json.Marshal of the checkpoint", name, writes, p.n)
				}
			}
			err = exp.RunPartial(d, nil, func(ti int, tr exp.Trial, te *exp.TrialError) error {
				if p.add(ti, tr, te); p.n%every == 0 {
					write()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			write()
			if len(p.file.Fails) != 1 || len(p.file.Trials) != 9 {
				t.Fatalf("%s: final checkpoint holds %d records and %d failures, want 9 and 1",
					name, len(p.file.Trials), len(p.file.Fails))
			}

			// The engine's own loop (the failure's stack differs run to run,
			// so its file is compared with itself).
			os.Remove(path)
			if _, err := Run(cfg, Options{Checkpoint: path, Every: every}); err != nil {
				t.Fatal(err)
			}
			canonical(t, name+": finished run", path)
		}
	}

	// Failure-free from here on: files of equal done-sets are equal bytes.
	cfg := testCfg()
	cfg.Telemetry = true
	whole := filepath.Join(dir, "whole.json")
	if _, err := Run(cfg, Options{Checkpoint: whole, Every: 4}); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, "uninterrupted run", whole)

	// Resume: cut the file back to its first two trials — a loaded
	// checkpoint, edited and written — and finish the run from it.
	cp, err := LoadCheckpoint(whole)
	if err != nil {
		t.Fatal(err)
	}
	cp.Done, cp.Trials = cp.Done[:2], cp.Trials[:2]
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, path), wholeMarshal(t, cp)) {
		t.Fatal("a loaded checkpoint written back is not its json.Marshal")
	}
	if res, err := Run(cfg, Options{Checkpoint: path}); err != nil || res.Restored != 2 || res.Ran != 4 {
		t.Fatalf("resume: restored %d, ran %d, err %v", res.Restored, res.Ran, err)
	}
	if !bytes.Equal(canonical(t, "resumed run", path), want) {
		t.Fatal("a resumed run's file differs from the uninterrupted run's")
	}

	// Merge: two shard files into the unsharded file.
	var shards []string
	for i := 0; i < 2; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, 2
		shards = append(shards, filepath.Join(dir, fmt.Sprintf("shard%d.json", i)))
		if _, err := Run(c, Options{Checkpoint: shards[i], Every: 2}); err != nil {
			t.Fatal(err)
		}
		canonical(t, "shard file", shards[i])
	}
	m, err := MergeFiles(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, wholeMarshal(t, m.p.checkpoint())) || !bytes.Equal(got, want) {
		t.Fatal("the merged file is not json.Marshal of the merged state, or not the unsharded run's file")
	}

	// Streaming mode has no records; its body is the sketch.
	if _, err := Run(testCfg(), Options{Checkpoint: path + ".stream", Every: 4, Stream: true}); err != nil {
		t.Fatal(err)
	}
	canonical(t, "streaming run", path+".stream")
}

// A write encodes the trials finished since the last write, not every trial
// done, and streams the file instead of assembling it: with a write after
// each trial, the last writes of a 64-trial run allocate about what the
// first did. (Re-marshalling the done-set made them 13 times the first; a
// buffer holding the whole file fails too.) Medians of eight, because one
// write's figure swings with what the collector left in encoding/json's
// buffer pool.
func TestCheckpointEncodesEachTrialOnce(t *testing.T) {
	cfg := testCfg()
	cfg.Trials, cfg.Segments, cfg.Telemetry = 64, 2, true
	d := cfg.WithDefaults()
	trials := exp.Run(d).Trials

	p, err := newProgress(header(d, false), func() (exp.Config, error) { return d, nil })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	allocated := make([]uint64, len(trials))
	for ti, tr := range trials {
		p.add(ti, tr, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := p.checkpoint().WriteFile(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated[ti] = after.TotalAlloc - before.TotalAlloc
	}
	median := func(xs []uint64) uint64 {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	early, late := median(allocated[:8]), median(allocated[len(allocated)-8:])
	t.Logf("a write allocates %d B early in the run, %d B late; the final file is %d B", early, late, len(readFile(t, path)))
	if late > 2*early {
		t.Fatalf("writes 57–64 allocate %d B each, writes 1–8 %d B: a write re-encodes or buffers what earlier writes already wrote", late, early)
	}
}

// failAfter fails every write once n bytes have gone through.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// The streamed writer reports a failing write wherever in the file it
// lands, and a write that fails after the temp file exists removes it.
func TestCheckpointWriteErrorsSurface(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	cfg := testCfg()
	cfg.Telemetry = true
	if _, err := Run(cfg, Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	size := len(readFile(t, path))
	for _, n := range []int{0, 100, size / 2, size - 1} {
		if err := cp.encode(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
			t.Fatalf("a write failing after %d of %d bytes: encode returned %v", n, size, err)
		}
	}
	if err := cp.encode(&failAfter{n: size}); err != nil {
		t.Fatalf("a writer with room for the file: %v", err)
	}

	// Rename cannot replace a directory with a file.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteFile(blocked); err == nil {
		t.Fatal("writing a checkpoint over a directory succeeded")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("a failed write left temp files behind: %v %v", left, err)
	}
}
