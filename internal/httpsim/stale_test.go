package httpsim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
)

// handPlayed is a client whose requests a test answers by hand: the server
// end is a bare connection whose request streams are collected in arrival
// order, and drop loses the next downlink datagram.
type handPlayed struct {
	t    *testing.T
	s    *sim.Sim
	cl   *Client
	sc   *quic.Conn
	drop *dropNext
	reqs []*quic.Stream
}

func newHandPlayed(t *testing.T) *handPlayed {
	s := sim.New(1)
	path := netem.NewFixedPath(s, 100e6, 1200)
	h := &handPlayed{t: t, s: s, drop: &dropNext{}}
	path.Down.Impair(h.drop, 1)
	cc, sc := quic.NewPair(s, path, quic.Config{IdleTimeout: clientIdle}, quic.Config{})
	h.cl, h.sc = NewClient(cc), sc
	sc.OnStream(func(st *quic.Stream) { h.reqs = append(h.reqs, st) })
	return h
}

func (h *handPlayed) run() { h.s.RunUntil(h.s.Now() + 200*time.Millisecond) }

// request runs until the server holds n request streams and returns the last.
func (h *handPlayed) request(n int) *quic.Stream {
	for i := 0; len(h.reqs) < n && i < 20; i++ {
		h.run()
	}
	if len(h.reqs) < n {
		h.t.Fatalf("the server saw %d request streams, want %d", len(h.reqs), n)
	}
	return h.reqs[n-1]
}

// head answers on a request stream with a status and a body length, and
// announces body when it is an unreliable stream.
func (h *handPlayed) head(req *quic.Stream, status int, bodyLen int64, body *quic.Stream) {
	var id uint64
	if body != nil {
		id = body.ID()
	}
	req.Write(appendResponseHead(nil, status, bodyLen, id, body != nil))
	h.run()
}

// spoil has a stale stream deliver data, then — an unreliable one — a loss
// report, then FIN, and checks on the client's end of it that each arrived.
func (h *handPlayed) spoil(server, client *quic.Stream) {
	h.t.Helper()
	server.WriteZeros(1500)
	h.run()
	if server.Unreliable() {
		h.drop.armed = true
		server.WriteZeros(3000)
		h.run()
	}
	server.CloseWrite()
	h.run()
	if client != nil && (client.Received().IsEmpty() || client.Unreliable() && client.Lost().IsEmpty()) {
		h.t.Fatalf("the stale stream got %v and lost %v: the test lost its teeth", client.Received().Ranges(), client.Lost().Ranges())
	}
}

// live is what a stale stream must not touch: the request's status, its
// body coverage, its resolution, its deadline and the callbacks it ran.
type live struct {
	status              int
	bodyLen             int64
	received, lost      []quic.ByteRange
	complete, failed    bool
	deadline            sim.Time
	armed               bool
	chunks, losses, end int
}

func (l *live) watch(r *Response) {
	r.OnBody = func(int64, int64, []byte) { l.chunks++ }
	r.OnLost = func(int64, int64) { l.losses++ }
	r.OnComplete = func() { l.end++ }
	r.OnFail = func(error) { l.end++ }
}

func (l live) of(r *Response) live {
	l.status, l.bodyLen = r.Status, r.BodyLen
	l.received, l.lost = slices.Clone(r.received.Ranges()), slices.Clone(r.lost.Ranges())
	l.complete, l.failed = r.complete, r.failed
	l.deadline, l.armed = 0, false
	if d := r.bound.deadline; d != nil {
		l.deadline, l.armed = d.When()
	}
	return l
}

func (h *handPlayed) untouched(what string, r *Response, l *live, before live) {
	h.t.Helper()
	if after := l.of(r); !reflect.DeepEqual(after, before) {
		h.t.Errorf("%s moved the live request:\n got %+v\nwant %+v", what, after, before)
	}
}

// TestStaleRequestStreamIsIsolated: once a retry is issued, the first
// attempt's request stream delivering a whole answer and its FIN leaves the
// live attempt as it was; so does the live attempt's own stream once the
// request is cancelled, and a request's stream once it failed for good.
func TestStaleRequestStreamIsIsolated(t *testing.T) {
	h := newHandPlayed(t)
	var l live
	r := h.cl.Get("/a", RangeSpec{{0, 3000}}, false, nil)
	l.watch(r)
	first := h.request(1)
	stale := r.req
	r.failAttempt(ErrRequestTimeout)
	second := h.request(2)
	h.head(second, 206, 3000, nil)
	second.WriteZeros(1000)
	h.run()
	before := l.of(r)
	if before.status != 206 || r.BytesReceived() != 1000 || !before.armed || l.chunks == 0 {
		t.Fatalf("the live attempt is not half done: %+v", before)
	}
	h.head(first, 200, 3000, nil)
	h.spoil(first, stale)
	h.untouched("the retried attempt's request stream", r, &l, before)

	cancelled := r.req
	r.Cancel()
	before = l.of(r)
	h.spoil(second, cancelled)
	h.untouched("the cancelled request's stream", r, &l, before)

	var lf live
	f := h.cl.Get("/b", RangeSpec{{0, 3000}}, false, nil)
	lf.watch(f)
	third := h.request(3)
	failed := f.req
	f.fail(ErrNoTransport)
	before = lf.of(f)
	h.head(third, 200, 3000, nil)
	h.spoil(third, failed)
	h.untouched("the failed request's stream", f, &lf, before)
}

// TestStaleBodyStreamIsIsolated: the unreliable body stream the first
// attempt adopted — bound when it arrived, or announced and arriving only
// after the retry — delivering data, a loss report and FIN leaves the live
// attempt as it was; so does the live attempt's own body stream once the
// request is cancelled.
func TestStaleBodyStreamIsIsolated(t *testing.T) {
	for _, arrivedFirst := range []bool{true, false} {
		h := newHandPlayed(t)
		var l live
		r := h.cl.Get("/a", RangeSpec{{0, 9000}}, true, nil)
		l.watch(r)
		first := h.request(1)
		body1 := h.sc.OpenStream(true)
		h.head(first, 206, 9000, body1)
		var stale *quic.Stream
		if arrivedFirst {
			body1.WriteZeros(500)
			h.run()
			stale = r.body
			if stale == nil {
				t.Fatal("the first attempt did not adopt its body stream")
			}
		}
		r.failAttempt(ErrRequestTimeout)
		second := h.request(2)
		body2 := h.sc.OpenStream(true)
		h.head(second, 206, 9000, body2)
		body2.WriteZeros(1000)
		h.run()
		before := l.of(r)
		if !before.armed || r.body == nil {
			t.Fatalf("the live attempt has not adopted its body: %+v", before)
		}
		h.spoil(body1, stale)
		h.untouched("the retried attempt's body stream", r, &l, before)
		if len(h.cl.earlyStreams) != 0 || len(h.cl.pendingByStream) != 0 {
			t.Errorf("the stale body stream left %d early buffers and %d pending adoptions, want none", len(h.cl.earlyStreams), len(h.cl.pendingByStream))
		}

		cancelled := r.body
		r.Cancel()
		before = l.of(r)
		h.spoil(body2, cancelled)
		h.untouched("the cancelled request's body stream", r, &l, before)
	}
}

// TestStaleEarlyStreamIsIsolated: a body stream that arrived before the head
// announcing it — the first attempt's, whose head comes only after the retry
// — delivering data, a loss report and FIN stays buffered and leaves the
// live attempt as it was; so does a cancelled request's early stream.
func TestStaleEarlyStreamIsIsolated(t *testing.T) {
	h := newHandPlayed(t)
	var l live
	r := h.cl.Get("/a", RangeSpec{{0, 9000}}, true, nil)
	l.watch(r)
	first := h.request(1)
	body1 := h.sc.OpenStream(true)
	body1.WriteZeros(500)
	h.run()
	early := h.cl.earlyStreams[body1.ID()]
	if early == nil {
		t.Fatal("the first attempt's body stream is not buffered as early")
	}
	r.failAttempt(ErrRequestTimeout)
	second := h.request(2)
	body2 := h.sc.OpenStream(true)
	h.head(second, 206, 9000, body2)
	body2.WriteZeros(1000)
	h.run()
	before := l.of(r)
	if !before.armed || r.body == nil {
		t.Fatalf("the live attempt has not adopted its body: %+v", before)
	}
	h.spoil(body1, early.st)
	h.head(first, 206, 9000, body1) // the stale attempt's head comes last
	h.untouched("the retried attempt's early stream", r, &l, before)
	if h.cl.earlyStreams[body1.ID()] != early {
		t.Error("the stale early stream was adopted")
	}

	c := h.cl.Get("/b", RangeSpec{{0, 9000}}, true, nil)
	var lc live
	lc.watch(c)
	third := h.request(3)
	body3 := h.sc.OpenStream(true)
	body3.WriteZeros(500)
	h.run()
	early = h.cl.earlyStreams[body3.ID()]
	if early == nil {
		t.Fatal("the cancelled request's body stream is not buffered as early")
	}
	c.Cancel()
	before = lc.of(c)
	h.spoil(body3, early.st)
	h.head(third, 206, 9000, body3)
	h.untouched("the cancelled request's early stream", c, &lc, before)
}

// TestEarlyStreamAdoptedAndPutBack: a body stream that arrived before its
// head is flushed into the response the head announces it to — data, loss
// report and FIN, in arrival order — bound to it from then on, and its
// buffer goes back to the store.
func TestEarlyStreamAdoptedAndPutBack(t *testing.T) {
	h := newHandPlayed(t)
	var l live
	r := h.cl.Get("/a", RangeSpec{{0, 6000}}, true, nil)
	l.watch(r)
	req := h.request(1)
	body := h.sc.OpenStream(true)
	h.spoil(body, nil) // 1500 bytes, 3000 more with a loss, FIN: all early
	early := h.cl.earlyStreams[body.ID()]
	if early == nil || len(early.chunks) == 0 || len(early.losses) == 0 || !early.fin {
		t.Fatal("the body stream is not buffered as early, with data, a loss report and FIN")
	}
	st := early.st
	h.head(req, 206, 4500, body)
	if r.body != st || h.cl.store.early.Lent() != 0 || len(h.cl.earlyStreams) != 0 {
		t.Fatalf("after its head the early stream is bound to %p (want %p), with %d early buffers out and %d left in the map, want none",
			r.body, st, h.cl.store.early.Lent(), len(h.cl.earlyStreams))
	}
	if !r.complete || l.end != 1 || l.chunks == 0 || l.losses == 0 || r.received.CoveredBytes()+r.lost.CoveredBytes() != 4500 {
		t.Fatalf("the flushed response: complete %v (%d resolutions), %d chunks, %d losses, %v received, %v lost",
			r.complete, l.end, l.chunks, l.losses, r.received.Ranges(), r.lost.Ranges())
	}
}

// TestServedRequestStreamIsDetached: once a request is served its reader
// goes back to the store and its stream is detached, so more bytes on that
// stream — a second head, here — reach no reader.
func TestServedRequestStreamIsDetached(t *testing.T) {
	fx := newFixture(t, 10, 32, map[string]Object{"/a": content(100), "/b": content(100)}, ServerOptions{})
	st := fx.client.conn.OpenStream(false)
	st.Write([]byte("GET /a HTTP/1.1\r\n\r\n"))
	fx.s.RunUntil(time.Second)
	st.Write([]byte("GET /b HTTP/1.1\r\n\r\n"))
	st.CloseWrite()
	fx.s.RunUntil(2 * time.Second)
	if fx.server.RequestsServed != 1 || fx.server.store.readers.Lent() != 0 {
		t.Fatalf("the server answered %d requests on one stream with %d readers out, want 1 and none", fx.server.RequestsServed, fx.server.store.readers.Lent())
	}
}
