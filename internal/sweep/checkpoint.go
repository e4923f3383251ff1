package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"voxel/internal/exp"
)

// checkpointVersion gates the file format; a reader refuses any other
// value rather than guessing.
const checkpointVersion = 1

// trialRecord stores one completed trial's full result.
type trialRecord struct {
	Trial  int       `json:"trial"`
	Result exp.Trial `json:"result"`
	// enc, when set, is json.Marshal of the two fields above, taken when a
	// checkpoint first needed it (exact.save): WriteFile writes it as it is,
	// so a finished trial is encoded once however many writes carry it.
	enc []byte
}

// Checkpoint is the on-disk state of a (possibly partial) sweep: the
// exp.Spec of what is being computed, which shard this file belongs to,
// which trials are done, and their results — either full per-trial records
// (exact mode) or folded sketch state (streaming mode). The final
// checkpoint of a finished shard doubles as the shard's output file, which
// is exactly what MergeFiles (`voxel-sim -merge`) consumes; MergeAggregates
// builds the same value from an aggregate in memory.
type Checkpoint struct {
	Version     int               `json:"version"`
	Fingerprint string            `json:"fingerprint"`
	Shard       Shard             `json:"shard"`
	Stream      bool              `json:"stream,omitempty"`
	Config      exp.Spec          `json:"config"`
	Done        []int             `json:"done"`
	Trials      []trialRecord     `json:"trials,omitempty"`
	Fails       []*exp.TrialError `json:"fails,omitempty"` // Config stripped; stamped back on load
	Sketch      *StreamAgg        `json:"sketch,omitempty"`
}

// header builds the checkpoint header for a run of cfg.
func header(cfg exp.Config, stream bool) Checkpoint {
	d := cfg.WithDefaults()
	id := d.Spec()
	return Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: id.Fingerprint(),
		Shard:       Shard{Index: d.ShardIndex, Count: d.ShardCount},
		Stream:      stream,
		Config:      id,
	}
}

// sameSweep reports whether the checkpoint holds results of the same
// experiment, accumulated in the same mode, as head — i.e. whether the two
// can be folded together (resume: the file into the run; merge: one shard
// file into another).
func (cp *Checkpoint) sameSweep(head *Checkpoint) error {
	switch {
	case cp.Fingerprint != head.Fingerprint:
		return fmt.Errorf("written by a different experiment (fingerprint %.12s, want %.12s)",
			cp.Fingerprint, head.Fingerprint)
	case cp.Stream != head.Stream:
		return fmt.Errorf("mixes streaming and classic checkpoints")
	}
	return nil
}

// WriteFile atomically persists the checkpoint: stream it to a temp file in
// the target directory, fsync, rename over the destination, fsync the
// directory. A SIGKILL at any instant leaves either the previous complete
// checkpoint or the new one — never a torn file.
func (cp *Checkpoint) WriteFile(path string) error {
	_, err := cp.writeFile(path)
	return err
}

// writeFile is WriteFile, reporting the size of the file it wrote.
func (cp *Checkpoint) writeFile(path string) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var size int64
	if err = cp.encode(tmp); err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return size, nil
}

// encode writes the file's bytes — json.Marshal(cp) and a newline, which is
// the definition of format version 1 — without building them in memory:
// the header and Done marshalled as a checkpoint with no body, then the
// body's members in field order under the struct's omitempty rules, each
// trial record marshalled on its own unless it already was.
func (cp *Checkpoint) encode(w io.Writer) error {
	var failed error
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil && failed == nil {
			failed = fmt.Errorf("sweep: marshal checkpoint: %w", err)
		}
		return b
	}
	head := *cp
	head.Trials, head.Fails, head.Sketch = nil, nil, nil
	b := marshal(&head)
	if failed != nil {
		return failed
	}
	// bufio keeps the first write error for Flush to report.
	bw := bufio.NewWriterSize(w, 32<<10)
	bw.Write(b[:len(b)-1]) // the object stays open for the body
	for i := range cp.Trials {
		if i == 0 {
			bw.WriteString(`,"trials":[`)
		} else {
			bw.WriteByte(',')
		}
		if rec := &cp.Trials[i]; rec.enc != nil {
			bw.Write(rec.enc)
		} else {
			bw.Write(marshal(rec))
		}
	}
	if len(cp.Trials) > 0 {
		bw.WriteByte(']')
	}
	if len(cp.Fails) > 0 {
		bw.WriteString(`,"fails":`)
		bw.Write(marshal(cp.Fails))
	}
	if cp.Sketch != nil {
		bw.WriteString(`,"sketch":`)
		bw.Write(marshal(cp.Sketch))
	}
	bw.WriteString("}\n")
	if failed != nil {
		return failed // the temp file is discarded
	}
	return bw.Flush()
}

// LoadCheckpoint reads a checkpoint file and validates it. A checkpoint is
// outside input — it may be torn, hand-edited, or written by another
// version — and validate is the one check: resume trusts a loaded
// checkpoint's structure, and merge runs validate on every member of a
// shard set, file or aggregate, before it folds any.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := parseCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return cp, nil
}

// parseCheckpoint is LoadCheckpoint over the file's bytes.
func parseCheckpoint(b []byte) (*Checkpoint, error) {
	cp, err := decodeCheckpoint(b)
	if err != nil {
		return nil, err
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// decodeCheckpoint parses a checkpoint's bytes without validating them:
// for a caller, like merge, that validates as its own first step.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// validate checks the header, that Done is a strictly increasing list of
// trials the file's shard owns, and that the body accounts for exactly
// those trials: one trial-or-failure record each in exact mode; in
// streaming mode no records and a sketch that folded as many.
func (cp *Checkpoint) validate() error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Fingerprint != cp.Config.Fingerprint() {
		return fmt.Errorf("fingerprint does not match stored config")
	}
	if cp.Config.Trials < 0 {
		return fmt.Errorf("config has %d trials", cp.Config.Trials)
	}
	if sh := cp.Shard; sh != (Shard{}) && (sh.Index < 0 || sh.Index >= sh.Count) {
		return fmt.Errorf("shard %v is not i/n with 0 <= i < n", sh)
	}
	for i, ti := range cp.Done {
		switch {
		case ti < 0 || ti >= cp.Config.Trials:
			return fmt.Errorf("done trial %d out of range [0, %d)", ti, cp.Config.Trials)
		case i > 0 && ti <= cp.Done[i-1]:
			return fmt.Errorf("done list is not strictly increasing at trial %d", ti)
		case !cp.Shard.owns(ti):
			return fmt.Errorf("done trial %d does not belong to shard %v", ti, cp.Shard)
		}
	}
	recorded := make([]int, 0, len(cp.Done))
	for _, rec := range cp.Trials {
		recorded = append(recorded, rec.Trial)
	}
	for _, te := range cp.Fails {
		if te == nil {
			return fmt.Errorf("null failure record")
		}
		recorded = append(recorded, te.Trial)
	}
	sort.Ints(recorded)
	switch {
	case cp.Stream != (cp.Sketch != nil):
		return fmt.Errorf("stream mode is %v but sketch state is present: %v", cp.Stream, cp.Sketch != nil)
	case cp.Stream && (len(recorded) != 0 || cp.Sketch.Trials != len(cp.Done)):
		return fmt.Errorf("sketch folded %d trials, with %d stray records, for %d done trials",
			cp.Sketch.Trials, len(recorded), len(cp.Done))
	case !cp.Stream && !slices.Equal(recorded, cp.Done):
		return fmt.Errorf("trial and failure records cover trials %v, done trials are %v", recorded, cp.Done)
	}
	return nil
}
