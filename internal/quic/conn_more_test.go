package quic

import (
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

func TestRecoversFromBlackout(t *testing.T) {
	// The link dies for 5 seconds mid-transfer; PTO probes and the
	// persistent-congestion collapse must revive the connection and the
	// reliable transfer must still complete intact.
	s := sim.New(21)
	samples := make([]float64, 600)
	for i := range samples {
		if i >= 3 && i < 8 {
			samples[i] = 5e4 // effectively dead (the shaper's floor rate)
		} else {
			samples[i] = 8e6
		}
	}
	tr := trace.MustNew("blackout", samples)
	path := netem.NewPath(s, tr, 32)
	client, server := NewPair(s, path, Config{}, Config{})
	const total = 4 << 20
	var doneAt sim.Time
	client.OnStream(func(st *Stream) {
		st.OnFin(func(uint64) { doneAt = s.Now() })
	})
	st := server.OpenStream(false)
	st.Write(payload(total))
	st.CloseWrite()
	s.RunUntil(120 * time.Second)
	if doneAt == 0 {
		t.Fatal("transfer did not survive the blackout")
	}
	if server.Stats().PTOCount == 0 {
		t.Fatal("expected PTO probes during the blackout")
	}
}

func TestFlowControlBlocksAndResumes(t *testing.T) {
	// A tiny connection flow-control window forces MAX_DATA round trips;
	// the transfer must still complete.
	s := sim.New(22)
	tr := trace.Constant("c", 10e6, 600)
	path := netem.NewPath(s, tr, 32)
	client, server := NewPair(s, path,
		Config{InitialMaxData: 64 << 10}, Config{InitialMaxData: 64 << 10})
	const total = 1 << 20
	fin := false
	client.OnStream(func(st *Stream) {
		st.OnFin(func(sz uint64) {
			fin = true
			if sz != total {
				t.Errorf("final size %d", sz)
			}
		})
	})
	st := server.OpenStream(false)
	st.Write(payload(total))
	st.CloseWrite()
	s.RunUntil(120 * time.Second)
	if !fin {
		t.Fatalf("transfer blocked by flow control never completed (sent %d)",
			server.Stats().StreamBytesSent)
	}
}

func TestSlowStartOvershootRecovered(t *testing.T) {
	// A deep (256-packet) queue lets slow start overshoot far past the
	// BDP; the resulting burst loss must be repaired without stalling the
	// transfer, and retransmissions must stay bounded (no retransmission
	// storms from spurious loss declarations).
	s := sim.New(23)
	tr := trace.Constant("c", 10e6, 600)
	path := netem.NewPath(s, tr, 256)
	client, server := NewPair(s, path, Config{}, Config{})
	fin := false
	client.OnStream(func(st *Stream) {
		st.OnFin(func(uint64) { fin = true })
	})
	const total = 1 << 20
	st := server.OpenStream(false)
	st.Write(payload(total))
	st.CloseWrite()
	s.RunUntil(60 * time.Second)
	if !fin {
		t.Fatal("transfer incomplete")
	}
	if rb := server.Stats().RetransmitBytes; rb > total/2 {
		t.Fatalf("%d of %d bytes retransmitted — loss detection is storming", rb, total)
	}
}

func TestCubicSharesFairlyBetweenTwoConnections(t *testing.T) {
	// Two server→client connections through the same bottleneck should
	// each get a nontrivial share (CUBIC fairness, coarse check).
	s := sim.New(24)
	tr := trace.Constant("c", 10e6, 600)
	path := netem.NewPath(s, tr, 32)
	c1, s1 := NewPair(s, path, Config{}, Config{})
	c2, s2 := NewPair(s, path, Config{}, Config{})
	recv := map[int]uint64{}
	for i, c := range []*Conn{c1, c2} {
		i := i
		c.OnStream(func(st *Stream) {
			st.OnData(func(off, _ uint64, data []byte) { recv[i] += uint64(len(data)) })
		})
	}
	for _, sv := range []*Conn{s1, s2} {
		st := sv.OpenStream(false)
		st.Write(payload(16 << 20))
		st.CloseWrite()
	}
	s.RunUntil(20 * time.Second)
	a, b := float64(recv[0]), float64(recv[1])
	if a == 0 || b == 0 {
		t.Fatalf("starvation: %v vs %v", a, b)
	}
	ratio := a / b
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 4 {
		t.Fatalf("unfair split: %v vs %v bytes", a, b)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.InitialMaxData != 16<<20 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Controller == nil {
		t.Fatal("default controller missing")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := sim.New(25)
	client, server := testPair(t, s, 10, 32)
	client.OnStream(func(*Stream) {})
	st := server.OpenStream(false)
	st.Write(payload(256 << 10))
	st.CloseWrite()
	s.RunUntil(30 * time.Second)
	sst := server.Stats()
	if sst.StreamBytesSent != 256<<10 {
		t.Fatalf("stream bytes sent %d", sst.StreamBytesSent)
	}
	if sst.PacketsSent == 0 || sst.BytesSent == 0 {
		t.Fatal("no packets accounted")
	}
	if client.Stats().PacketsReceived == 0 {
		t.Fatal("client received nothing")
	}
}

func TestWriteAfterCloseWritePanics(t *testing.T) {
	s := sim.New(26)
	client, _ := testPair(t, s, 10, 32)
	st := client.OpenStream(false)
	st.CloseWrite()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Write([]byte("x"))
}

func TestWriteAtOnReliableStreamPanics(t *testing.T) {
	s := sim.New(27)
	client, _ := testPair(t, s, 10, 32)
	st := client.OpenStream(false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.WriteAt(0, []byte("x"))
}
