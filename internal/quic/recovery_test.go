package quic

import (
	"testing"
	"time"

	"voxel/internal/cc"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// rtoCounter counts the persistent-congestion collapses a connection
// declares to its congestion controller.
type rtoCounter struct {
	cc.Controller
	rtos int
}

func (r *rtoCounter) OnRetransmissionTimeout(now sim.Time) {
	r.rtos++
	r.Controller.OnRetransmissionTimeout(now)
}

// blackholedPair builds a pair whose path goes dark in both directions for
// good at 1 s: a first 64 KB exchange completes before, and the client
// writes 64 KB more into the dark at 2 s, so it probes from then on.
func blackholedPair(s *sim.Sim, clientCfg, serverCfg Config) (client, server *Conn) {
	path := netem.NewPath(s, trace.Constant("test", 10e6, 3600), 32)
	dark := netem.Blackout{Windows: []netem.Window{{Start: time.Second, End: 1 << 62}}}
	path.Down.Impair(dark, 1)
	path.Up.Impair(dark, 2)
	client, server = NewPair(s, path, clientCfg, serverCfg)
	st := client.OpenStream(false)
	st.Write(payload(64 << 10))
	s.Schedule(2*time.Second, func() { st.Write(payload(64 << 10)) })
	return client, server
}

// A connection with an idle timeout on a blackholed path closes with
// ErrIdleTimeout exactly one timeout after the last packet it received; the
// legacy transport (no idle timeout) stays open and keeps probing.
func TestIdleTimeoutClosesBlackholedConn(t *testing.T) {
	const idle = 5 * time.Second
	s := sim.New(1)
	client, server := blackholedPair(s, Config{IdleTimeout: idle}, Config{IdleTimeout: idle})
	closedAt := map[*Conn]sim.Time{}
	for _, c := range []*Conn{client, server} {
		c.OnClose(func(error) { closedAt[c] = s.Now() })
	}
	s.RunUntil(10 * idle)
	for _, c := range []*Conn{client, server} {
		last := c.LastActivity()
		if last == 0 || last >= time.Second {
			t.Fatalf("last receive at %v, want before the blackout at 1s", last)
		}
		if c.Err() != ErrIdleTimeout || closedAt[c] != last+idle {
			t.Fatalf("closed at %v with %v, want %v at %v (last receive + idle timeout)",
				closedAt[c], c.Err(), ErrIdleTimeout, last+idle)
		}
	}

	s = sim.New(1)
	client, _ = blackholedPair(s, Config{}, Config{})
	s.RunUntil(5 * idle)
	ptos := client.Stats().PTOCount
	s.RunUntil(10 * idle)
	if client.Closed() || client.Stats().PTOCount <= ptos {
		t.Fatalf("legacy connection closed=%v, PTOs %d → %d over the last %v: want open and probing",
			client.Closed(), ptos, client.Stats().PTOCount, 5*idle)
	}
}

// ptoTimes runs the blackholed pair for two minutes and returns the times
// the client's PTO fired, its PTO period during the blackout, and how many
// times it declared persistent congestion.
func ptoTimes(t *testing.T, idle sim.Time) (fired []sim.Time, pto sim.Time, rtos int) {
	t.Helper()
	s := sim.New(1)
	ctl := &rtoCounter{Controller: cc.NewCubic()}
	client, _ := blackholedPair(s, Config{IdleTimeout: idle, Controller: ctl}, Config{IdleTimeout: idle})
	for s.RunUntilBudget(2*time.Minute, 1) {
		if n := int(client.Stats().PTOCount); n > len(fired) {
			fired = append(fired, s.Now())
		}
	}
	if client.Closed() || len(fired) < 12 {
		t.Fatalf("closed=%v after %d PTOs, want an open connection probing at least 12 times", client.Closed(), len(fired))
	}
	return fired, client.RTT().PTO(), ctl.rtos
}

// Through a blackout, a connection with an idle timeout backs its PTO off
// up to PTO<<ptoBackoffCap and then probes at that period, declaring
// persistent congestion once for the whole streak. The legacy transport
// declares it every 3 PTOs and restarts the backoff each time.
func TestPTOBackoffPlateausUnderBlackout(t *testing.T) {
	fired, pto, rtos := ptoTimes(t, time.Hour)
	plateau := pto << ptoBackoffCap
	for n := 1; n < len(fired); n++ { // the gap after the n-th PTO
		gap := fired[n] - fired[n-1]
		if gap > plateau || (n >= ptoBackoffCap && gap != plateau) {
			t.Fatalf("gap after PTO %d = %v, want it to reach and hold PTO<<%d = %v (PTOs at %v)",
				n, gap, ptoBackoffCap, plateau, fired)
		}
	}
	if rtos != 1 {
		t.Fatalf("persistent congestion declared %d times in one streak of %d PTOs, want once", rtos, len(fired))
	}

	fired, pto, rtos = ptoTimes(t, 0)
	for n := 1; n < len(fired); n++ {
		if gap := fired[n] - fired[n-1]; gap >= pto<<3 {
			t.Fatalf("legacy gap after PTO %d = %v, want the backoff reset below PTO<<3 = %v", n, gap, pto<<3)
		}
	}
	if rtos != len(fired)/3 {
		t.Fatalf("legacy persistent congestion declared %d times in %d PTOs, want every 3", rtos, len(fired))
	}
}

// A packet declared lost is counted in the connection's telemetry whichever
// way it was declared: in a blackout no ACK arrives, so every loss comes from
// the persistent congestion of the third PTO, on either transport.
func TestBlackoutLossesReachTelemetry(t *testing.T) {
	for _, idle := range []sim.Time{time.Hour, 0} {
		s := sim.New(1)
		sc := obs.NewScope(s.Now, obs.Options{})
		client, _ := blackholedPair(s, Config{IdleTimeout: idle, Obs: sc}, Config{IdleTimeout: idle})
		s.RunUntil(time.Minute)
		st := client.Stats()
		if got := sc.TrialReport().Counters[obs.CPacketsLost]; st.PTOCount < 3 || st.PacketsDeclLost == 0 || got != st.PacketsDeclLost {
			t.Fatalf("idle timeout %v: %d PTOs declared %d packets lost, and telemetry counted %d", idle, st.PTOCount, st.PacketsDeclLost, got)
		}
	}
}

// On a quiet but healthy pair the client sends a keep-alive PING every
// IdleTimeout/2 and the server none, and neither side closes.
func TestKeepAliveHoldsQuietPairOpen(t *testing.T) {
	const idle = 2 * time.Second
	s := sim.New(1)
	path := netem.NewPath(s, trace.Constant("test", 10e6, 3600), 32)
	client, server := NewPair(s, path, Config{IdleTimeout: idle}, Config{IdleTimeout: idle})
	var pings []sim.Time
	for s.RunUntilBudget(10*idle, 1) {
		if n := int(client.elicSent); n > len(pings) {
			pings = append(pings, s.Now())
		}
	}
	if client.Closed() || server.Closed() {
		t.Fatalf("client closed=%v (%v), server closed=%v (%v) over %v of quiet", client.Closed(), client.Err(),
			server.Closed(), server.Err(), 10*idle)
	}
	if len(pings) < 19 {
		t.Fatalf("client sent %d keep-alive PINGs in %v, want one every %v", len(pings), 10*idle, idle/2)
	}
	for i, at := range pings {
		if want := sim.Time(i+1) * idle / 2; at != want {
			t.Fatalf("PING %d at %v, want %v", i+1, at, want)
		}
	}
	if server.elicSent != 0 {
		t.Fatalf("server sent %d ack-eliciting packets on a quiet pair, want none", server.elicSent)
	}
}
