// Package obs is the telemetry subsystem: typed counters, gauges, and
// fixed-bucket histograms in a Registry, plus a per-trial Timeline of
// cross-layer events (segment choices, virtual levels, loss reports,
// retries, failovers, rebuffers, abandonments) with ring-buffer storage and
// deterministic sequence numbers.
//
// The package is zero-dependency (stdlib only) and allocation-conscious by
// contract:
//
//   - A nil *Scope is valid and turns every recording method into a no-op;
//     instrumented hot paths (the QUIC* ACK path, the receive path) stay at
//     0 allocs/op with telemetry disabled, pinned by tests in internal/quic.
//   - An enabled Scope allocates once at construction (registry + ring) and
//     never again while recording: counters and gauges are array writes,
//     histograms are bounded linear scans, events are in-place ring writes
//     with scalar payloads — no interfaces, no variadics, no fmt.
//   - Recording never schedules simulator events or perturbs timing, so a
//     telemetered run is bit-identical to an untelemetered one; sequence
//     numbers are deterministic because each trial's world is
//     single-threaded.
//
// A Scope is not safe for concurrent use. The experiment harness creates
// one per trial and merges the per-trial reports afterwards, so parallel
// trial execution still yields a deterministic aggregate.
package obs

import "time"

// Options parameterizes a Scope.
type Options struct {
	// TimelineCap is the event ring capacity (DefaultTimelineCap if <= 0).
	TimelineCap int
}

// Scope is the recording handle threaded through the stack. The zero
// pointer is the disabled state: every method checks the receiver for nil
// first, so call sites need no guards of their own.
type Scope struct {
	reg Registry
	tl  Timeline
	now func() time.Duration
}

// NewScope returns an enabled scope. now supplies the current virtual time
// for event stamps (typically sim.Now); a nil now stamps events at zero.
func NewScope(now func() time.Duration, opts Options) *Scope {
	return &Scope{tl: newTimeline(opts.TimelineCap), now: now}
}

// Count adds n to a counter.
func (s *Scope) Count(c Counter, n uint64) {
	if s == nil {
		return
	}
	s.reg.Add(c, n)
}

// Inc adds one to a counter.
func (s *Scope) Inc(c Counter) {
	if s == nil {
		return
	}
	s.reg.Add(c, 1)
}

// SetGauge records a gauge's latest value.
func (s *Scope) SetGauge(g Gauge, v int64) {
	if s == nil {
		return
	}
	s.reg.SetGauge(g, v)
}

// Observe records a value into a histogram.
func (s *Scope) Observe(h Hist, v int64) {
	if s == nil {
		return
	}
	s.reg.Observe(h, v)
}

// Event records a timeline event with integer payload fields.
func (s *Scope) Event(k Kind, a, b, c int64) {
	if s == nil {
		return
	}
	s.tl.record(s.timestamp(), k, a, b, c, 0)
}

// EventX records a timeline event carrying an additional float payload.
func (s *Scope) EventX(k Kind, a, b, c int64, x float64) {
	if s == nil {
		return
	}
	s.tl.record(s.timestamp(), k, a, b, c, x)
}

func (s *Scope) timestamp() time.Duration {
	if s.now == nil {
		return 0
	}
	return s.now()
}

// Registry exposes the scope's metric registry (nil for a disabled scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return &s.reg
}

// TrialReport snapshots the scope into an exportable per-trial report.
// The Trial index is zero; the harness stamps it when aggregating.
func (s *Scope) TrialReport() *TrialReport {
	if s == nil {
		return nil
	}
	r := &TrialReport{
		Counters: s.reg.counters,
		Gauges:   s.reg.gauges,
		Events:   s.tl.Events(),
		Recorded: s.tl.Recorded(),
	}
	for h := Hist(0); h < NumHists; h++ {
		r.Hists[h] = s.reg.snapshotHist(h)
	}
	return r
}
