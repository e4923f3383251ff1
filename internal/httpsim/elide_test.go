package httpsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// linkTap records every datagram that finishes serialization on a link as
// (time, size). It rides at the head of the impairment chain, consumes no
// randomness and decides nothing; the size is the step in the link's byte
// counter since the previous datagram.
type linkTap struct {
	link  *netem.Link
	bytes uint64
	trace []tapped
}

type tapped struct {
	at   sim.Time
	size uint64
}

func (p *linkTap) Apply(now sim.Time, _ *rand.Rand, _ *netem.Fate) {
	b := p.link.Stats().BytesSent
	p.trace = append(p.trace, tapped{now, b - p.bytes})
	p.bytes = b
}

func tap(l *netem.Link, imp netem.Impairment, seed int64) *linkTap {
	p := &linkTap{link: l}
	chain := netem.Chain{p}
	if imp != nil {
		chain = append(chain, imp)
	}
	l.Impair(chain, seed)
	return p
}

// transferOutcome is everything observable about one transfer that must not
// depend on whether the body's bytes exist.
type transferOutcome struct {
	down, up           []tapped
	client, server     quic.Stats
	received, lost     []quic.ByteRange
	chunks             [][2]int64 // OnBody (offset, length) in arrival order
	completedAt        sim.Time
	pings, pingsServed int
}

// runTransfer fetches obj through httpsim → quic → netem under the named
// impairment profile while a trickle of tiny requests keeps ACKs pending at
// the server, so retransmitted frames meet packets they no longer fit and
// go through the retransmit split.
func runTransfer(t *testing.T, obj Object, profile string, unreliable bool) transferOutcome {
	t.Helper()
	s := sim.New(3)
	path := netem.NewPath(s, trace.Constant("t", 8e6, 3600), 24)
	down, up, err := netem.NewProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	downTap, upTap := tap(path.Down, down, 11), tap(path.Up, up, 12)
	cc, sc := quic.NewPair(s, path, quic.Config{}, quic.Config{})
	NewServer(sc, HandlerFunc(func(p string) (Object, error) {
		if p == "/ping" {
			return BytesObject("pong"), nil
		}
		return obj, nil
	}), ServerOptions{})
	cl := NewClient(cc)

	var out transferOutcome
	size := obj.Size()
	resp := cl.Get("/body", RangeSpec{{0, size / 2}, {size / 2, size}}, unreliable, nil)
	resp.OnBody = func(off, n int64, data []byte) {
		if data != nil && int64(len(data)) != n {
			t.Errorf("OnBody(%d, %d) with %d data bytes", off, n, len(data))
		}
		out.chunks = append(out.chunks, [2]int64{off, n})
	}
	resp.OnComplete = func() { out.completedAt = s.Now() }
	var ping func()
	ping = func() {
		if resp.Complete() {
			return
		}
		out.pings++
		cl.Get("/ping", nil, false, nil).OnComplete = func() { out.pingsServed++ }
		s.Schedule(13*time.Millisecond, ping)
	}
	ping()
	s.RunUntil(2 * time.Minute)
	if !resp.Complete() {
		t.Fatalf("%s unreliable=%v: transfer incomplete (%d of %d B)", profile, unreliable, resp.BytesReceived(), size)
	}
	out.down, out.up = downTap.trace, upTap.trace
	out.client, out.server = cc.Stats(), sc.Stats()
	out.received = append(out.received, resp.Received().Ranges()...)
	out.lost = append(out.lost, resp.Lost().Ranges()...)
	return out
}

// TestZeroAndBytesObjectsIndistinguishable is the elision contract: a body
// served as a length (ZeroObject) and the same body served as real zero
// bytes (BytesObject) produce identical per-packet (time, size) traces on
// both links, identical transport statistics, coverage, delivery chunking
// and completion time — clean and under burst loss, reliable and
// unreliable.
func TestZeroAndBytesObjectsIndistinguishable(t *testing.T) {
	const size = 1 << 20
	for _, profile := range []string{netem.ProfileClean, netem.ProfileBursty} {
		for _, unreliable := range []bool{false, true} {
			zero := runTransfer(t, ZeroObject(size), profile, unreliable)
			real := runTransfer(t, BytesObject(make([]byte, size)), profile, unreliable)
			if !reflect.DeepEqual(zero, real) {
				t.Errorf("%s unreliable=%v: ZeroObject and BytesObject transfers differ:\n zero: %d/%d pkts, %+v, done %v\n real: %d/%d pkts, %+v, done %v",
					profile, unreliable,
					len(zero.down), len(zero.up), zero.server, zero.completedAt,
					len(real.down), len(real.up), real.server, real.completedAt)
			}
			if profile == netem.ProfileBursty {
				if unreliable && len(zero.lost) == 0 {
					t.Errorf("bursty unreliable transfer reported no loss; the test lost its teeth")
				}
				if !unreliable && zero.server.RetransmitBytes == 0 {
					t.Errorf("bursty reliable transfer retransmitted nothing; the test lost its teeth")
				}
			}
		}
	}
}

// dropNext drops the first datagram that leaves the link after it is armed.
type dropNext struct{ armed bool }

func (d *dropNext) Apply(_ sim.Time, _ *rand.Rand, f *netem.Fate) {
	if d.armed {
		d.armed = false
		f.Drop = true
	}
}

// TestLostHeadPacketBuffersLinearly is the regression test for quadratic
// head buffering: when the packet carrying a reliable response's head is
// lost, the rest of the congestion window overtakes it and piles up in the
// head phase. Buffering used to reallocate and copy the whole prefix on
// every such frame (473 MB for either transfer here); now elided frames are
// coverage only (1 MB, mostly pool growth) and real ones grow the buffer
// geometrically (7 MB, mostly the body copy and its buffer doublings).
func TestLostHeadPacketBuffersLinearly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		obj     Object
		maxMB   float64
		maxObjs uint64
	}{
		{"zero", ZeroObject(1 << 20), 2, 8000},
		{"bytes", content(1 << 20), 12, 8000},
	} {
		s := sim.New(1)
		path := netem.NewFixedPath(s, 100e6, 1200)
		drop := &dropNext{}
		path.Down.Impair(drop, 1)
		cc, sc := quic.NewPair(s, path, quic.Config{}, quic.Config{})
		NewServer(sc, HandlerFunc(func(string) (Object, error) { return tc.obj, nil }), ServerOptions{})
		cl := NewClient(cc)

		// Grow the congestion window first, so that most of the second
		// response is in flight behind its lost head.
		warm := cl.Get("/warm", nil, false, nil)
		s.RunUntil(10 * time.Second)
		if !warm.Complete() {
			t.Fatalf("%s: warm-up transfer incomplete", tc.name)
		}

		got := make([]byte, 1<<20)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		drop.armed = true
		resp := cl.Get("/body", nil, false, nil)
		resp.OnBody = func(off, _ int64, data []byte) { copy(got[off:], data) }
		s.RunUntil(20 * time.Second)
		runtime.ReadMemStats(&m1)
		if !resp.Complete() || resp.BytesReceived() != 1<<20 {
			t.Fatalf("%s: transfer incomplete (%d B)", tc.name, resp.BytesReceived())
		}
		if want, ok := tc.obj.(BytesObject); ok && !bytes.Equal(got, want) {
			t.Fatalf("%s: body reassembled from behind the lost head is corrupt", tc.name)
		}
		if drop.armed || sc.Stats().RetransmitBytes == 0 {
			t.Fatalf("%s: the head packet was not lost and retransmitted", tc.name)
		}
		mb, objs := float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, m1.Mallocs-m0.Mallocs
		t.Logf("%s: %.2f MB, %d objects for the request", tc.name, mb, objs)
		if mb > tc.maxMB || objs > tc.maxObjs {
			t.Errorf("%s: request allocated %.2f MB in %d objects, want <= %.1f MB, %d objects",
				tc.name, mb, objs, tc.maxMB, tc.maxObjs)
		}
	}
}

// TestBytesObjectServedWithoutCopy: a BytesObject is a fixed byte slice, so
// serving it queues the slice itself (quic.Stream.WriteShared) — memory for
// one response is O(frames), not O(bytes). The per-session copy of a shared
// manifest was 113 MB of a traced fig6-matrix run.
func TestBytesObjectServedWithoutCopy(t *testing.T) {
	obj := content(1 << 20)
	fx := newFixture(t, 100, 256, map[string]Object{"/mpd": obj}, ServerOptions{})
	for i := 1; i <= 3; i++ { // grow the window, and with it the transport's pools
		warm := fx.client.Get("/mpd", nil, false, nil)
		fx.s.RunUntil(sim.Time(i) * 10 * time.Second)
		if !warm.Complete() {
			t.Fatal("warm-up transfer incomplete")
		}
	}
	got := make([]byte, len(obj))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resp := fx.client.Get("/mpd", nil, false, nil)
	resp.OnBody = func(off, _ int64, data []byte) { copy(got[off:], data) }
	fx.s.RunUntil(40 * time.Second)
	runtime.ReadMemStats(&m1)
	if !resp.Complete() || !bytes.Equal(got, obj) {
		t.Fatalf("transfer incomplete or corrupt (%d B)", resp.BytesReceived())
	}
	if kb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3; kb > 256 {
		t.Errorf("serving a 1 MB BytesObject allocated %.0f KB, want O(frames) — well under the body size", kb)
	} else {
		t.Logf("serving a 1 MB BytesObject allocated %.0f KB", kb)
	}
}
