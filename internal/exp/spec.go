package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"voxel/internal/qoe"
	"voxel/internal/trace"
)

// Spec is the one serialised form of a Config: every field that changes
// trial results, and none of the fields that only change how they are
// executed (shard coordinates, parallelism, interrupt plumbing). Two runs
// with equal Specs produce interchangeable trial records. The sweep
// checkpoint header (internal/sweep, version 1) and the crash Artifact both
// carry it, and Fingerprint over it is what lets resume and merge refuse a
// file written by a different experiment — so the field set, order and JSON
// tags are a file format. This file is the only place Config's fields are
// listed for serialisation: the struct, Config.Spec (to) and Spec.Config
// (from); TestSpecCoversConfig fails when a Config field is missing here.
//
// A Spec is plain data. A checkpoint of a trace with no canonical name
// (e.g. trace.Constant/trace.Step) — nothing to rebuild it from — still
// loads, fingerprints and resumes against the in-memory Config; only
// Spec.Config needs the canonical name.
type Spec struct {
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

// Spec distills the config, normalized (defaults applied, execution-only
// fields dropped). The trace contributes its name plus a hash of its
// samples (a trace with no canonical name, e.g. trace.Constant/trace.Step,
// still fingerprints exactly), and its ByName key when it has one so
// Spec.Config can rebuild the trace from the file alone.
func (c Config) Spec() Spec {
	c = c.Normalized()
	sp := Spec{
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
		sp.TraceName = c.Trace.Name()
		sp.TraceHash = hashSamples(c.Trace.Samples())
		sp.TraceCanonical, _ = trace.CanonicalName(c.Trace)
	}
	return sp
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

// Fingerprint hashes the spec's canonical JSON. encoding/json renders struct
// fields in declaration order and floats in shortest exact form, so equal
// specs always hash equal.
func (sp Spec) Fingerprint() string {
	b, err := json.Marshal(sp)
	if err != nil {
		// A Spec is all scalars and strings; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Config rebuilds the runnable (normalized) configuration the spec was
// distilled from, and validates it: a spec read from a file is outside
// input. Only a trace with a canonical ByName key can be rebuilt; results
// over a trace with no canonical name (e.g. trace.Constant/trace.Step) must
// be folded in-process, where the *trace.Trace is at hand.
func (sp Spec) Config() (Config, error) {
	c := Config{
		Title:          sp.Title,
		System:         System(sp.System),
		BufferSegments: sp.BufferSegments,
		QueuePackets:   sp.QueuePackets,
		Trials:         sp.Trials,
		Metric:         qoe.Metric(sp.Metric),
		Segments:       sp.Segments,
		CrossTraffic:   sp.CrossTraffic,
		LinkCapacity:   sp.LinkCapacity,
		Seed:           sp.Seed,
		MaxSimTime:     time.Duration(sp.MaxSimTimeNS),
		CC:             sp.CC,
		Impairment:     sp.Impairment,
		Failover:       sp.Failover,
		Telemetry:      sp.Telemetry,
		TimelineCap:    sp.TimelineCap,
		Sessions:       sp.Sessions,
		Invariants:     sp.Invariants,
		WatchdogWall:   time.Duration(sp.WatchdogWallNS),
		WatchdogEvents: sp.WatchdogEvents,
		Inject:         sp.Inject,
	}
	if sp.TraceName != "" {
		if sp.TraceCanonical == "" {
			return Config{}, fmt.Errorf(
				"exp: trace %q has no canonical name to rebuild it from; fold its results in-process with sweep.MergeAggregates",
				sp.TraceName)
		}
		tr, err := trace.ByName(sp.TraceCanonical)
		if err != nil {
			return Config{}, fmt.Errorf("exp: %v", err)
		}
		if hashSamples(tr.Samples()) != sp.TraceHash {
			return Config{}, fmt.Errorf("exp: rebuilt trace %q does not match stored hash", sp.TraceCanonical)
		}
		c.Trace = tr
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
