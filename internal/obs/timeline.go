package obs

import "time"

// Kind classifies a timeline event. Each kind documents the meaning of the
// event's scalar payload fields A, B, C, and X.
type Kind uint8

// The event kinds, covering one trial's cross-layer story.
const (
	// EvSegmentChosen: the ABR committed to a download.
	// A=segment index, B=quality rung, C=target bytes, X=expected score.
	EvSegmentChosen Kind = iota
	// EvVirtualLevel: the chosen candidate is a partial (virtual) level.
	// A=segment index, B=quality rung, C=bytes.
	EvVirtualLevel
	// EvBytesReliable: a reliable phase delivered its body bytes.
	// A=segment index, B=bytes.
	EvBytesReliable
	// EvBytesUnreliable: an unreliable body finished (complete or failed).
	// A=segment index, B=bytes received.
	EvBytesUnreliable
	// EvLossReport: the transport reported a permanent unreliable hole.
	// A=stream ID, B=stream offset, C=length.
	EvLossReport
	// EvRetry: a request attempt failed and a retry was scheduled.
	// A=attempt number (1-based), B=reason code (ReasonTimeout, ...).
	EvRetry
	// EvFailover: the HTTP client rebound to a spare origin connection.
	EvFailover
	// EvRebufferStart: playback stalled. A=next segment index.
	EvRebufferStart
	// EvRebufferStop: playback resumed. A=next segment index,
	// X=this rebuffer's stall duration in seconds.
	EvRebufferStop
	// EvAbandonRestart: download discarded, refetching at a new candidate.
	// A=segment index, B=wasted bytes, C=new target bytes.
	EvAbandonRestart
	// EvAbandonPartial: download stopped, partial segment kept (§4.3).
	// A=segment index, B=bytes received, C=target bytes.
	EvAbandonPartial
	// EvRequestFailed: a request was abandoned for good. A=attempts made.
	EvRequestFailed
	// EvSegmentDone: a segment completed (fully or partially).
	// A=segment index, B=bytes received, C=bytes lost, X=QoE score.
	EvSegmentDone
	// EvStartup: first segment buffered, playback begins. X=delay seconds.
	EvStartup
	// EvConnClosed: a transport connection closed. A=reason code
	// (ReasonIdleTimeout, ReasonClosed, ReasonOther).
	EvConnClosed
	// EvTrialFailed: the trial died (panic, invariant violation, or watchdog
	// budget) and this report is the harness's failed-trial placeholder. The
	// event is stamped at the failure's virtual time.
	EvTrialFailed

	NumKinds
)

// Reason codes carried in event payloads (EvRetry.B, EvConnClosed.A).
const (
	ReasonOther = iota
	ReasonIdleTimeout
	ReasonClosed
	ReasonTimeout
)

var kindNames = [NumKinds]string{
	EvSegmentChosen:   "segment_chosen",
	EvVirtualLevel:    "virtual_level",
	EvBytesReliable:   "bytes_reliable",
	EvBytesUnreliable: "bytes_unreliable",
	EvLossReport:      "loss_report",
	EvRetry:           "retry",
	EvFailover:        "failover",
	EvRebufferStart:   "rebuffer_start",
	EvRebufferStop:    "rebuffer_stop",
	EvAbandonRestart:  "abandon_restart",
	EvAbandonPartial:  "abandon_partial",
	EvRequestFailed:   "request_failed",
	EvSegmentDone:     "segment_done",
	EvStartup:         "startup",
	EvConnClosed:      "conn_closed",
	EvTrialFailed:     "trial_failed",
}

// String returns the kind's snake_case export name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown_event"
}

// Event is one recorded timeline entry. Payload semantics are per Kind.
// Seq numbers are assigned in record order within a trial, starting at 1;
// because every trial runs on a single-threaded simulated world, the
// sequence is deterministic for a given seed regardless of how many trials
// run in parallel.
type Event struct {
	Seq     uint64
	At      time.Duration // virtual time since the trial's start
	Kind    Kind
	A, B, C int64
	X       float64
}

// DefaultTimelineCap is the ring capacity used when a Scope is created
// without an explicit cap: large enough for a full 75-segment trial under
// heavy impairment, small enough to keep per-trial memory bounded.
const DefaultTimelineCap = 8192

// Timeline records events into a ring buffer of at most cap events: the
// most recent cap survive, older ones are evicted, and Recorded keeps the
// true total so exports can say how many were dropped. The ring starts
// small and doubles up to cap as events arrive — a trial that records a few
// dozen events does not pay for 8,192 slots — so recording into a ring with
// room, or into a full-grown one, allocates nothing, and a scope's growth
// costs O(log cap) allocations in all.
type Timeline struct {
	ring  []Event // len < cap only while total <= len: it never wraps before it is full-grown
	cap   int
	total uint64
}

// timelineStart is the ring's first size, in events.
const timelineStart = 32

func newTimeline(cap int) Timeline {
	if cap <= 0 {
		cap = DefaultTimelineCap
	}
	return Timeline{cap: cap}
}

func (t *Timeline) record(at time.Duration, k Kind, a, b, c int64, x float64) {
	if n := len(t.ring); t.total == uint64(n) && n < t.cap {
		grown := make([]Event, min(max(2*n, timelineStart), t.cap))
		copy(grown, t.ring)
		t.ring = grown
	}
	slot := &t.ring[t.total%uint64(len(t.ring))]
	t.total++
	slot.Seq = t.total
	slot.At = at
	slot.Kind = k
	slot.A, slot.B, slot.C = a, b, c
	slot.X = x
}

// Recorded returns the total number of events recorded (survivors plus
// evicted).
func (t *Timeline) Recorded() uint64 { return t.total }

// Dropped returns how many events were evicted by the ring.
func (t *Timeline) Dropped() uint64 {
	if t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Events returns the surviving events in sequence order (oldest survivor
// first). The returned slice is freshly allocated.
func (t *Timeline) Events() []Event {
	n := t.total
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	out := make([]Event, n)
	start := t.total - n // seq of the oldest survivor, minus one
	for i := uint64(0); i < n; i++ {
		out[i] = t.ring[(start+i)%uint64(len(t.ring))]
	}
	return out
}
