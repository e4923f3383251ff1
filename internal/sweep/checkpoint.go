package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"voxel/internal/exp"
	"voxel/internal/qoe"
	"voxel/internal/trace"
)

// checkpointVersion gates the file format; a reader refuses any other
// value rather than guessing.
const checkpointVersion = 1

// identity is the canonical description of what a sweep computes: every
// Config field that changes trial results, and none of the fields that only
// change how they are executed (shard coordinates, parallelism, interrupt
// plumbing). Two runs with equal identities produce interchangeable trial
// records; the fingerprint over this struct is what lets resume and merge
// refuse a checkpoint written by a different experiment.
type identity struct {
	Title          string  `json:"title"`
	System         string  `json:"system"`
	BufferSegments int     `json:"buffer_segments"`
	TraceName      string  `json:"trace_name,omitempty"`
	TraceHash      string  `json:"trace_hash,omitempty"`
	TraceCanonical string  `json:"trace_canonical,omitempty"`
	QueuePackets   int     `json:"queue_packets"`
	Trials         int     `json:"trials"`
	Metric         int     `json:"metric"`
	Segments       int     `json:"segments"`
	CrossTraffic   float64 `json:"cross_traffic"`
	LinkCapacity   float64 `json:"link_capacity"`
	Seed           int64   `json:"seed"`
	MaxSimTimeNS   int64   `json:"max_sim_time_ns"`
	CC             string  `json:"cc,omitempty"`
	Impairment     string  `json:"impairment,omitempty"`
	Failover       bool    `json:"failover,omitempty"`
	Telemetry      bool    `json:"telemetry,omitempty"`
	TimelineCap    int     `json:"timeline_cap,omitempty"`
	Sessions       int     `json:"sessions,omitempty"`
	Invariants     bool    `json:"invariants,omitempty"`
	WatchdogWallNS int64   `json:"watchdog_wall_ns,omitempty"`
	WatchdogEvents uint64  `json:"watchdog_events,omitempty"`
	Inject         string  `json:"inject,omitempty"`
}

// identityOf distills a config. The trace contributes its name plus a hash
// of its samples (CSV-loaded traces have no canonical name but still
// fingerprint exactly), and its ByName key when it has one so voxel-merge
// can rebuild the config from the file alone.
func identityOf(cfg exp.Config) identity {
	c := cfg.Normalized()
	id := identity{
		Title:          c.Title,
		System:         string(c.System),
		BufferSegments: c.BufferSegments,
		QueuePackets:   c.QueuePackets,
		Trials:         c.Trials,
		Metric:         int(c.Metric),
		Segments:       c.Segments,
		CrossTraffic:   c.CrossTraffic,
		LinkCapacity:   c.LinkCapacity,
		Seed:           c.Seed,
		MaxSimTimeNS:   int64(c.MaxSimTime),
		CC:             c.CC,
		Impairment:     c.Impairment,
		Failover:       c.Failover,
		Telemetry:      c.Telemetry,
		TimelineCap:    c.TimelineCap,
		Sessions:       c.Sessions,
		Invariants:     c.Invariants,
		WatchdogWallNS: int64(c.WatchdogWall),
		WatchdogEvents: c.WatchdogEvents,
		Inject:         c.Inject,
	}
	if c.Trace != nil {
		id.TraceName = c.Trace.Name()
		id.TraceHash = hashSamples(c.Trace.Samples())
		if name, ok := trace.CanonicalName(c.Trace); ok {
			id.TraceCanonical = name
		}
	}
	return id
}

func hashSamples(xs []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint hashes the canonical JSON of an identity. encoding/json
// renders struct fields in declaration order and floats in shortest exact
// form, so equal identities always hash equal.
func (id identity) fingerprint() string {
	b, err := json.Marshal(id)
	if err != nil {
		// identity is all scalars and strings; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// config rebuilds an exp.Config from the stored identity. Only traces with
// a canonical ByName key can be rebuilt; a CSV-loaded trace must be merged
// in-process where the *trace.Trace is at hand.
func (id identity) config() (exp.Config, error) {
	c := exp.Config{
		Title:          id.Title,
		System:         exp.System(id.System),
		BufferSegments: id.BufferSegments,
		QueuePackets:   id.QueuePackets,
		Trials:         id.Trials,
		Metric:         qoe.Metric(id.Metric),
		Segments:       id.Segments,
		CrossTraffic:   id.CrossTraffic,
		LinkCapacity:   id.LinkCapacity,
		Seed:           id.Seed,
		MaxSimTime:     time.Duration(id.MaxSimTimeNS),
		CC:             id.CC,
		Impairment:     id.Impairment,
		Failover:       id.Failover,
		Telemetry:      id.Telemetry,
		TimelineCap:    id.TimelineCap,
		Sessions:       id.Sessions,
		Invariants:     id.Invariants,
		WatchdogWall:   time.Duration(id.WatchdogWallNS),
		WatchdogEvents: id.WatchdogEvents,
		Inject:         id.Inject,
	}
	if id.TraceName != "" {
		if id.TraceCanonical == "" {
			return exp.Config{}, fmt.Errorf(
				"sweep: trace %q has no canonical name; merge it in-process with exp.MergeShards",
				id.TraceName)
		}
		tr, err := trace.ByName(id.TraceCanonical)
		if err != nil {
			return exp.Config{}, err
		}
		if hashSamples(tr.Samples()) != id.TraceHash {
			return exp.Config{}, fmt.Errorf("sweep: rebuilt trace %q does not match stored hash",
				id.TraceCanonical)
		}
		c.Trace = tr
	}
	return c, nil
}

// trialRecord stores one completed trial's full result.
type trialRecord struct {
	Trial  int       `json:"trial"`
	Result exp.Trial `json:"result"`
}

// Checkpoint is the on-disk state of a (possibly partial) sweep: the
// identity of what is being computed, which shard this file belongs to,
// which trials are done, and their results — either full per-trial records
// (exact mode) or folded sketch state (streaming mode). The final
// checkpoint of a finished shard doubles as the shard's output file, which
// is exactly what voxel-merge consumes.
type Checkpoint struct {
	Version     int               `json:"version"`
	Fingerprint string            `json:"fingerprint"`
	Shard       Shard             `json:"shard"`
	Stream      bool              `json:"stream,omitempty"`
	Config      identity          `json:"config"`
	Done        []int             `json:"done"`
	Trials      []trialRecord     `json:"trials,omitempty"`
	Fails       []*exp.TrialError `json:"fails,omitempty"` // Config stripped; stamped back on load
	Sketch      *StreamAgg        `json:"sketch,omitempty"`
}

// header builds the checkpoint header for a run of cfg.
func header(cfg exp.Config, stream bool) Checkpoint {
	d := cfg.WithDefaults()
	id := identityOf(d)
	return Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: id.fingerprint(),
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

// WriteFile atomically persists the checkpoint: marshal, write to a temp
// file in the target directory, fsync, rename over the destination, fsync
// the directory. A SIGKILL at any instant leaves either the previous
// complete checkpoint or the new one — never a torn file.
func (cp *Checkpoint) WriteFile(path string) error {
	b, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("sweep: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file and validates it. A checkpoint is
// outside input — it may be torn, hand-edited, or written by another
// version — and this is the one place it is checked: everything downstream
// (resume, merge) trusts a loaded checkpoint's structure.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
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
	if cp.Fingerprint != cp.Config.fingerprint() {
		return fmt.Errorf("fingerprint does not match stored config")
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
