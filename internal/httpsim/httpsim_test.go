package httpsim

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

type fixture struct {
	s      *sim.Sim
	path   *netem.Path
	client *Client
	server *Server
}

func newFixture(t *testing.T, mbps float64, queuePkts int, objects map[string]Object, opts ServerOptions) *fixture {
	t.Helper()
	return newIdleFixture(t, 0, mbps, queuePkts, objects, opts)
}

// newIdleFixture is newFixture with the client's connection given an idle
// timeout, which arms the client's request deadline and retries.
func newIdleFixture(t *testing.T, idle sim.Time, mbps float64, queuePkts int, objects map[string]Object, opts ServerOptions) *fixture {
	t.Helper()
	s := sim.New(77)
	tr := trace.Constant("t", mbps*1e6, 3600)
	path := netem.NewPath(s, tr, queuePkts)
	cc, sc := quic.NewPair(s, path, quic.Config{IdleTimeout: idle}, quic.Config{})
	handler := HandlerFunc(func(path string) (Object, error) {
		if o, ok := objects[path]; ok {
			return o, nil
		}
		return nil, errNotFound{}
	})
	return &fixture{
		s:      s,
		path:   path,
		client: NewClient(cc),
		server: NewServer(sc, handler, opts),
	}
}

type errNotFound struct{}

func (errNotFound) Error() string { return "not found" }

func content(n int) BytesObject {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return BytesObject(b)
}

func TestSimpleGet(t *testing.T) {
	obj := content(100 << 10)
	fx := newFixture(t, 10, 32, map[string]Object{"/a": obj}, ServerOptions{})
	resp := fx.client.Get("/a", nil, false, nil)
	got := make([]byte, len(obj))
	var done bool
	resp.OnBody = func(off, _ int64, data []byte) { copy(got[off:], data) }
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(30 * time.Second)
	if !done {
		t.Fatal("request did not complete")
	}
	if resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	if resp.BodyLen != int64(len(obj)) {
		t.Fatalf("content-length %d, want %d", resp.BodyLen, len(obj))
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("body corrupted")
	}
}

func TestNotFound(t *testing.T) {
	fx := newFixture(t, 10, 32, nil, ServerOptions{})
	resp := fx.client.Get("/missing", nil, false, nil)
	done := false
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(5 * time.Second)
	if !done || resp.Status != 404 {
		t.Fatalf("done=%v status=%d, want 404", done, resp.Status)
	}
}

func TestRangeRequest(t *testing.T) {
	obj := content(10000)
	fx := newFixture(t, 10, 32, map[string]Object{"/a": obj}, ServerOptions{})
	ranges := RangeSpec{{100, 200}, {5000, 5050}, {0, 10}}
	resp := fx.client.Get("/a", ranges, false, nil)
	got := make([]byte, ranges.TotalBytes())
	done := false
	resp.OnBody = func(off, _ int64, data []byte) { copy(got[off:], data) }
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(5 * time.Second)
	if !done || resp.Status != 206 {
		t.Fatalf("done=%v status=%d, want 206", done, resp.Status)
	}
	want := append(append(append([]byte{}, obj[100:200]...), obj[5000:5050]...), obj[0:10]...)
	if !bytes.Equal(got, want) {
		t.Fatal("range body wrong")
	}
}

func TestRangeOutOfBounds(t *testing.T) {
	fx := newFixture(t, 10, 32, map[string]Object{"/a": content(100)}, ServerOptions{})
	resp := fx.client.Get("/a", RangeSpec{{50, 200}}, false, nil)
	done := false
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(5 * time.Second)
	if !done || resp.Status != 416 {
		t.Fatalf("status %d, want 416", resp.Status)
	}
}

func TestUnreliableDelivery(t *testing.T) {
	obj := content(512 << 10)
	fx := newFixture(t, 10, 32, map[string]Object{"/a": obj}, ServerOptions{})
	resp := fx.client.Get("/a", nil, true, nil)
	got := make([]byte, len(obj))
	done := false
	resp.OnBody = func(off, _ int64, data []byte) { copy(got[off:], data) }
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(30 * time.Second)
	if !done {
		t.Fatal("unreliable request did not complete")
	}
	if !resp.Unreliable {
		t.Fatal("response should be marked unreliable")
	}
	if fx.server.UnreliableBodies != 1 {
		t.Fatal("server should count one unreliable body")
	}
	// Slow-start overshoot on a 32-packet queue loses some packets (that
	// is the point of the partially reliable design) — but most of the
	// body must arrive, and what arrived must be byte-correct.
	lost := int64(resp.Lost().CoveredBytes())
	if lost > int64(len(obj))/3 {
		t.Fatalf("lost %d of %d bytes — too much for this path", lost, len(obj))
	}
	for _, r := range resp.Received().Ranges() {
		if !bytes.Equal(got[r.Start:r.End], obj[r.Start:r.End]) {
			t.Fatalf("received range %v corrupted", r)
		}
	}
}

func TestUnreliableWithLossCompletesWithHoles(t *testing.T) {
	obj := content(1 << 20)
	fx := newFixture(t, 4, 8, map[string]Object{"/a": obj}, ServerOptions{})
	resp := fx.client.Get("/a", nil, true, nil)
	done := false
	var lostBytes int64
	resp.OnLost = func(off, n int64) { lostBytes += n }
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(120 * time.Second)
	if !done {
		t.Fatal("lossy unreliable request did not complete")
	}
	if lostBytes == 0 {
		t.Fatal("expected reported losses on a tight queue")
	}
	if resp.BytesReceived()+int64(resp.Lost().CoveredBytes()) < int64(len(obj)) {
		t.Fatal("received + lost must cover the object")
	}
}

func TestVoxelUnawareServerIgnoresHeader(t *testing.T) {
	obj := content(64 << 10)
	fx := newFixture(t, 10, 32, map[string]Object{"/a": obj}, ServerOptions{VoxelUnaware: true})
	resp := fx.client.Get("/a", nil, true, nil)
	done := false
	got := make([]byte, len(obj))
	resp.OnBody = func(off, _ int64, data []byte) { copy(got[off:], data) }
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(10 * time.Second)
	if !done {
		t.Fatal("request did not complete")
	}
	if resp.Unreliable {
		t.Fatal("VOXEL-unaware server must answer reliably")
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("body corrupted")
	}
}

func TestSequentialRequests(t *testing.T) {
	objs := map[string]Object{"/1": content(50 << 10), "/2": content(80 << 10)}
	fx := newFixture(t, 10, 32, objs, ServerOptions{})
	doneCount := 0
	issue := func(path string, n int) {
		resp := fx.client.Get(path, nil, false, nil)
		resp.OnComplete = func() {
			if resp.BytesReceived() != int64(n) {
				t.Errorf("%s: received %d, want %d", path, resp.BytesReceived(), n)
			}
			doneCount++
		}
	}
	issue("/1", 50<<10)
	issue("/2", 80<<10)
	fx.s.RunUntil(30 * time.Second)
	if doneCount != 2 {
		t.Fatalf("%d requests completed, want 2", doneCount)
	}
	if fx.server.RequestsServed != 2 {
		t.Fatalf("server served %d", fx.server.RequestsServed)
	}
}

func TestZeroObject(t *testing.T) {
	fx := newFixture(t, 10, 32, map[string]Object{"/z": ZeroObject(256 << 10)}, ServerOptions{})
	resp := fx.client.Get("/z", nil, false, nil)
	done := false
	resp.OnComplete = func() { done = true }
	fx.s.RunUntil(30 * time.Second)
	if !done || resp.BytesReceived() != 256<<10 {
		t.Fatalf("zero object: done=%v received=%d", done, resp.BytesReceived())
	}
}

func TestRangeSpecHelpers(t *testing.T) {
	r := RangeSpec{{100, 200}, {500, 600}}
	if r.TotalBytes() != 200 {
		t.Fatalf("total %d", r.TotalBytes())
	}
	type br = [2]uint64 // [start, end)
	for _, c := range []struct {
		name string
		spec RangeSpec
		cov  []br // body coverage
		base int64
		want []br // object offsets less base
	}{
		// Single offsets.
		{"first byte", r, []br{{0, 1}}, 0, []br{{100, 101}}},
		{"last byte of first range", r, []br{{99, 100}}, 0, []br{{199, 200}}},
		{"first byte of second range", r, []br{{100, 101}}, 0, []br{{500, 501}}},
		{"last byte", r, []br{{199, 200}}, 0, []br{{599, 600}}},
		{"past the end", r, []br{{200, 201}}, 0, nil},

		{"nothing covered", r, nil, 0, nil},
		{"everything", r, []br{{0, 200}}, 0, []br{{100, 200}, {500, 600}}},
		{"straddling two ranges", r, []br{{90, 110}}, 0, []br{{190, 200}, {500, 510}}},
		{"clipped at the total", r, []br{{150, 400}}, 0, []br{{550, 600}}},
		{"base shifts down", r, []br{{0, 10}, {190, 200}}, 100, []br{{0, 10}, {490, 500}}},
		{"several per range", r, []br{{10, 20}, {30, 40}, {120, 130}}, 0, []br{{110, 120}, {130, 140}, {520, 530}}},
		{"out-of-order spec", RangeSpec{{500, 600}, {100, 200}}, []br{{50, 150}}, 0, []br{{100, 150}, {550, 600}}},
		{"adjacent spec ranges merge", RangeSpec{{0, 10}, {10, 20}}, []br{{5, 15}}, 0, []br{{5, 15}}},
		{"empty range in the spec", RangeSpec{{100, 110}, {300, 300}, {500, 510}}, []br{{5, 15}}, 0, []br{{105, 110}, {500, 505}}},
		{"straddling three", RangeSpec{{0, 4}, {10, 14}, {20, 24}}, []br{{2, 10}}, 0, []br{{2, 4}, {10, 14}, {20, 22}}},
		{"empty spec", nil, []br{{0, 10}}, 0, nil},
	} {
		var cov, got quic.RangeSet
		for _, x := range c.cov {
			cov.Add(x[0], x[1])
		}
		c.spec.Project(&got, &cov, c.base)
		var have []br
		for _, x := range got.Ranges() {
			have = append(have, br{x.Start, x.End})
		}
		if !slices.Equal(have, c.want) {
			t.Errorf("%s: %v.Project(%v, base %d) = %v, want %v", c.name, c.spec, c.cov, c.base, have, c.want)
		}
	}
}
