package quic

import (
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// TestAckPathAllocFreeTelemetry repeats the steady-state ACK-path
// zero-allocation pin with telemetry ENABLED: the obs scope records into
// flat arrays and a preallocated ring, so instrumentation must not
// reintroduce allocations on the hot path.
func TestAckPathAllocFreeTelemetry(t *testing.T) {
	s := sim.New(5)
	sc := obs.NewScope(func() time.Duration { return time.Duration(s.Now()) }, obs.Options{})
	tr := trace.Constant("bench", 50e6, 3600)
	path := netem.NewPath(s, tr, 64)
	_, c := NewPair(s, path, Config{}, Config{Obs: sc})
	c.rtt.OnSample(60 * time.Millisecond)

	next := fillWindow(c, s, 0, 64)
	acked := uint64(0)
	for i := 0; i < 64; i++ { // warm freelists and scratch
		acked += 2
		c.onAck(&AckFrame{Ranges: []AckRange{{First: 0, Last: acked - 1}}})
		next = fillWindow(c, s, next, 2)
	}
	ack := &AckFrame{Ranges: []AckRange{{First: 0, Last: 0}}}
	allocs := testing.AllocsPerRun(200, func() {
		acked += 2
		ack.Ranges[0] = AckRange{First: 0, Last: acked - 1}
		c.onAck(ack)
		next = fillWindow(c, s, next, 2)
	})
	if allocs > 0.5 {
		t.Fatalf("telemetered ACK path allocates %.1f allocs/op, want 0", allocs)
	}
	if sc.Registry().HistCount(obs.HRTTMs) == 0 {
		t.Fatal("telemetry enabled but no RTT samples recorded")
	}
}

// TestConnTelemetryCounters runs real traffic through a telemetered pair
// and checks the transport counters and close events land in the scope.
func TestConnTelemetryCounters(t *testing.T) {
	s := sim.New(7)
	sc := obs.NewScope(func() time.Duration { return time.Duration(s.Now()) }, obs.Options{})
	tr := trace.Constant("obs", 10e6, 3600)
	path := netem.NewPath(s, tr, 64)
	client, server := NewPair(s, path, Config{Obs: sc}, Config{Obs: sc})

	var got uint64
	client.OnStream(func(st *Stream) {
		st.OnData(func(_, _ uint64, data []byte) { got += uint64(len(data)) })
	})
	st := server.OpenStream(false)
	payload := make([]byte, 64<<10)
	st.Write(payload)
	st.CloseWrite()
	s.RunUntil(5 * time.Second)

	if got != uint64(len(payload)) {
		t.Fatalf("received %d bytes, want %d", got, len(payload))
	}
	r := sc.Registry()
	if r.Counter(obs.CPacketsSent) == 0 || r.Counter(obs.CPacketsReceived) == 0 {
		t.Fatal("packet counters not recorded")
	}
	if r.Counter(obs.CStreamBytesSent) != uint64(len(payload)) {
		t.Fatalf("stream bytes = %d, want %d", r.Counter(obs.CStreamBytesSent), len(payload))
	}
	if r.Counter(obs.CBytesSent) < r.Counter(obs.CStreamBytesSent) {
		t.Fatal("wire bytes below stream bytes")
	}

	client.Close(nil)
	server.Close(ErrIdleTimeout)
	if r.Counter(obs.CConnCloses) != 2 {
		t.Fatalf("conn closes = %d, want 2", r.Counter(obs.CConnCloses))
	}
	var reasons []int64
	for _, ev := range sc.TrialReport().Events {
		if ev.Kind == obs.EvConnClosed {
			reasons = append(reasons, ev.A)
		}
	}
	if len(reasons) != 2 || reasons[0] != obs.ReasonClosed || reasons[1] != obs.ReasonIdleTimeout {
		t.Fatalf("close reasons = %v, want [%d %d]", reasons, obs.ReasonClosed, obs.ReasonIdleTimeout)
	}
}
