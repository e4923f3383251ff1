package httpsim

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/obs"
	"voxel/internal/quic"
	"voxel/internal/sim"
)

// ErrRequestTimeout is the attempt-failure reason when a request made no
// progress (no head or body byte, no loss report) for the configured
// deadline.
var ErrRequestTimeout = errors.New("httpsim: request deadline exceeded")

// ErrNoTransport is the terminal failure reason when every connection the
// client knows about is closed.
var ErrNoTransport = errors.New("httpsim: all connections closed")

// The client's recovery schedule, armed for every request attempt over a
// connection with an idle timeout (quic.Conn.IdleTimeout) and for none over
// a legacy one. requestTimeout is a progress deadline, not an absolute one:
// it is re-armed whenever the attempt makes any progress (head bytes, body
// bytes, or a transport loss report), so a slow-but-flowing transfer on a
// starved link is never killed — only a genuinely stuck one. It also defers
// to connection-level liveness: a request that is merely queued behind
// another transfer on a connection that is still receiving packets is not
// failed (see Response.onDeadline), so the deadline converts dead links into
// bounded failures without turning head-of-line blocking into retry storms.
// A failed attempt n (1-based) is retried after retryBaseDelay<<(n-1),
// capped at retryMaxDelay, with a retryJitter fraction of the wait
// randomized (±12.5 %), until maxAttempts attempts have been made. A
// request retries once any of its attempts has armed a deadline, so under
// failover across mixed idle timeouts a legacy attempt is retried too.
const (
	requestTimeout = 4 * time.Second
	maxAttempts    = 4
	retryBaseDelay = 250 * time.Millisecond
	retryMaxDelay  = 4 * time.Second
	retryJitter    = 0.25
)

// backoff returns the wait before the attempt after failed attempt n.
func backoff(n int, rng *rand.Rand) sim.Time {
	d := min(retryBaseDelay<<uint(n-1), retryMaxDelay)
	span := sim.Time(float64(d) * retryJitter)
	return d + sim.Time(rng.Int63n(int64(span))) - span/2
}

// Response is a client-side in-flight response. Body delivery is
// event-driven; offsets are positions in the concatenated range payload
// (Ranges.Project maps coverage back to object offsets). Ranges is the
// caller's spec as passed to Get, read but never written or appended to, so
// it may alias storage shared with other requests, such as a manifest's. A
// response lives as long as its world: once the kernel is released it is
// scrubbed for the next world's requests, so nothing may hold it longer.
type Response struct {
	Ranges     RangeSpec
	Status     int
	BodyLen    int64
	Unreliable bool // the body travels on an announced unreliable stream

	// OnBody fires per arriving chunk (possibly out of order on unreliable
	// responses) with its position and length in the body, and its bytes —
	// nil for the content-free body of a ZeroObject. data is only valid
	// during the call.
	OnBody func(bodyOff, length int64, data []byte)
	// OnLost fires when the transport gives up on a body range.
	OnLost func(bodyOff, length int64)
	// OnHead fires once the response head is parsed.
	OnHead func()
	// OnComplete fires when every body byte is received or reported lost.
	OnComplete func()
	// OnFail fires once when the request is abandoned for good: every
	// attempt timed out or the last transport died. Body coverage gathered
	// so far stays readable — the caller decides what a partial download
	// is worth (§4.3).
	OnFail func(error)

	received quic.RangeSet
	lost     quic.RangeSet
	headDone bool
	complete bool
	finSeen  bool
	failed   bool
	client   *Client
	head     headBuf // reassembles the response head (reliable stream)
	bodyBase uint64  // stream offset where the body starts (reliable path)

	// Retry state. Only the current attempt's streams are bound to the
	// response: a retry, a failure or Cancel unbinds them, so a stale stream
	// delivering late cannot corrupt the next attempt's head parse. Body
	// coverage (received/lost) survives across attempts — the request
	// re-asks for the same ranges, so offsets line up and duplicate bytes
	// are suppressed by the coverage gap check.
	path       string
	unreliable bool         // the request asks for unreliable delivery
	extra      []headerLine // caller's headers; with path, Ranges and unreliable, all an attempt's head is written from
	attempt    int
	retries    bool         // some attempt armed the deadline: a failed attempt is retried
	req        *quic.Stream // the current attempt's request stream
	body       *quic.Stream // the current attempt's adopted unreliable body stream
	bodyID     uint64       // the stream the current attempt's head announced, while awaited (server-initiated: never 0)

	bound binding
}

// binding is what a response binds to itself and keeps across worlds
// (DESIGN.md §5): the callbacks its attempts install on their request
// streams, bound the first time the store hands the response out; those of
// an adopted body stream, bound at the first adoption; and the attempt
// timers, made when first armed. Bound to the response alone, they pin
// nothing of a world; Scrub stops the timers, so no event handle outlives
// its world.
type binding struct {
	reqData  func(off, n uint64, data []byte)
	reqFin   func(finalSize uint64)
	bodyData func(off, n uint64, data []byte)
	bodyLost func(off, n uint64)
	bodyFin  func(finalSize uint64)
	deadline *sim.Timer
	retry    *sim.Timer
}

// unbind detaches the current attempt's streams from r — data and loss
// reports on them fall away from now on (quic.Stream.Detach) — and gives back
// its half-built head. An announced body stream that has not arrived yet is
// left a tombstone, so that it arrives unbound rather than buffered as early.
func (r *Response) unbind() {
	c := r.client
	if r.req != nil {
		r.req.Detach()
		r.req = nil
	}
	if r.body != nil {
		r.body.Detach()
		r.body = nil
	}
	if r.bodyID != 0 {
		if c.pendingByStream[r.bodyID] == r { // not the map of a connection failed over from
			c.pendingByStream[r.bodyID] = nil
		}
		r.bodyID = 0
	}
	r.head.reset(&c.store.heads)
}

// stopTimers disarms r's deadline and retry timers.
func (r *Response) stopTimers() {
	for _, t := range [...]*sim.Timer{r.bound.deadline, r.bound.retry} {
		if t != nil {
			t.Stop()
		}
	}
}

// Received exposes the received body coverage.
func (r *Response) Received() *quic.RangeSet { return &r.received }

// Lost exposes the permanently lost body ranges.
func (r *Response) Lost() *quic.RangeSet { return &r.lost }

// Complete reports whether the response fully resolved.
func (r *Response) Complete() bool { return r.complete }

// BytesReceived returns the number of body bytes that arrived.
func (r *Response) BytesReceived() int64 { return int64(r.received.CoveredBytes()) }

// Cancel detaches the response: its streams are unbound, so body coverage
// stays as it was, and no further retry fires. The transport keeps draining
// whatever the server already queued; the player accounts for abandoned
// downloads itself.
func (r *Response) Cancel() {
	r.OnBody = nil
	r.OnLost = nil
	r.OnComplete = nil
	r.OnFail = nil
	r.failed = true
	r.stopTimers()
	r.unbind()
	r.client.detach(r)
}

// Client issues GET requests over a QUIC* connection, optionally retrying
// failed attempts and failing over to spare connections.
type Client struct {
	conn  *quic.Conn   // active transport
	conns []*quic.Conn // all transports in failover preference order
	sim   *sim.Sim
	obs   *obs.Scope // nil = telemetry disabled (all calls no-op)

	// pendingByStream maps unreliable stream IDs announced on the active
	// connection, until the stream arrives, to the attempt that adopts it —
	// nil once that attempt is over.
	pendingByStream map[uint64]*Response
	// earlyStreams buffers unreliable streams that arrived before their
	// announcing response head.
	earlyStreams map[uint64]*earlyStream

	// inflight tracks unresolved responses in issue order, so the sweep on
	// a connection close fails them in a deterministic order.
	inflight []*Response

	// gapScratch is AppendGaps scratch for body delivery. Bytes and loss
	// reports only ever arrive from link events, so no callback re-enters
	// delivery while a gap list is being walked.
	gapScratch []quic.ByteRange
	store      *exchangeStore
}

// Scrub returns r to its zero state for the kernel's next world, keeping
// only the capacity of its body coverage sets and of its head's coverage
// set, and its binding, with the timers stopped. The response store calls
// it when the world ends; nothing else may.
func (r *Response) Scrub() {
	r.stopTimers()
	r.received.Reset()
	r.lost.Reset()
	r.head.cov.Reset()
	*r = Response{received: r.received, lost: r.lost, head: headBuf{cov: r.head.cov}, bound: r.bound}
}

// earlyStream buffers an unreliable stream that arrived before the head
// announcing it. Its three stream callbacks are bound to the buffer the
// first time the store hands it out.
type earlyStream struct {
	onData func(off, n uint64, data []byte)
	onLost func(off, n uint64)
	onFin  func(finalSize uint64)

	st     *quic.Stream
	chunks []earlyChunk
	losses [][2]uint64
	fin    bool
	final  uint64
}

// Scrub empties the buffer for the store, keeping the capacity of its lists
// and its callbacks.
func (e *earlyStream) Scrub() {
	clear(e.chunks[:cap(e.chunks)])
	*e = earlyStream{onData: e.onData, onLost: e.onLost, onFin: e.onFin, chunks: e.chunks[:0], losses: e.losses[:0]}
}

func (e *earlyStream) data(off, n uint64, data []byte) {
	if data != nil {
		data = append([]byte(nil), data...) // outlives the packet buffer
	}
	e.chunks = append(e.chunks, earlyChunk{off: off, n: n, data: data})
}

func (e *earlyStream) lostRange(off, n uint64) { e.losses = append(e.losses, [2]uint64{off, n}) }

func (e *earlyStream) finished(final uint64) { e.fin, e.final = true, final }

type earlyChunk struct {
	off, n uint64
	data   []byte // nil for a content-free chunk
}

// NewClient wires a Client to the connection. It takes over the
// connection's OnStream callback for server-initiated (unreliable body)
// streams and the OnClose callback for failure sweeps.
func NewClient(conn *quic.Conn) *Client {
	c := &Client{
		conn:            conn,
		conns:           []*quic.Conn{conn},
		sim:             conn.Sim(),
		pendingByStream: make(map[uint64]*Response),
		earlyStreams:    make(map[uint64]*earlyStream),
		store:           exchanges.Get(conn.Sim()),
	}
	conn.OnStream(c.onServerStream)
	conn.OnClose(c.onConnClose)
	return c
}

// SetObs installs the telemetry scope recording request/retry/failover
// activity. A nil scope (the default) disables recording at zero cost.
func (c *Client) SetObs(sc *obs.Scope) { c.obs = sc }

// attemptReasonCode maps an attempt-failure reason to its telemetry code.
func attemptReasonCode(reason error) int64 {
	switch {
	case errors.Is(reason, ErrRequestTimeout):
		return obs.ReasonTimeout
	case errors.Is(reason, quic.ErrIdleTimeout):
		return obs.ReasonIdleTimeout
	case errors.Is(reason, quic.ErrClosed):
		return obs.ReasonClosed
	default:
		return obs.ReasonOther
	}
}

// AddFailover registers a spare connection (to a second origin). When the
// active connection closes, the client rebinds to the next open spare and
// re-issues in-flight requests there, subject to the retry schedule.
func (c *Client) AddFailover(conn *quic.Conn) {
	c.conns = append(c.conns, conn)
}

// Conn returns the currently active transport.
func (c *Client) Conn() *quic.Conn { return c.conn }

// Get issues a GET for path. ranges may be nil (whole object); unreliable
// asks the server for unreliable body delivery; extra headers are optional.
// Callbacks should be set on the returned Response immediately (before the
// simulator runs again). The response comes from the kernel's store with its
// stream callbacks bound to it, and ranges is read, never copied, so on a
// warm kernel a request allocates nothing of its own.
func (c *Client) Get(path string, ranges RangeSpec, unreliable bool, extra map[string]string) *Response {
	resp := c.store.responses.Get()
	if resp.bound.reqData == nil {
		resp.bound.reqData, resp.bound.reqFin = resp.onRequestData, resp.onReliableFin
	}
	resp.Ranges, resp.client, resp.path, resp.unreliable, resp.extra = ranges, c, path, unreliable, sortedHeaders(extra)
	c.obs.Inc(obs.CRequests)
	c.inflight = append(c.inflight, resp)
	c.issue(resp)
	return resp
}

// issue wires one request attempt onto the active connection: its request
// stream is bound to the response until the attempt is over (unbind).
func (c *Client) issue(r *Response) {
	if c.conn == nil || c.conn.Closed() {
		// Deferred one event: when Get itself hits a dead transport, the
		// caller has not wired OnFail yet.
		c.sim.Schedule(0, func() { r.fail(ErrNoTransport) })
		return
	}
	r.attempt++
	r.headDone = false
	r.bodyBase = 0
	r.finSeen = false
	r.Status, r.Unreliable = 0, false // this attempt's origin may answer differently
	st := c.conn.OpenStream(false)
	st.OnData(r.bound.reqData)
	st.OnFin(r.bound.reqFin)
	r.req = st
	x := c.store
	x.out = appendRequestHead(x.out[:0], r.path, r.Ranges, r.unreliable, r.extra)
	st.Write(x.out)
	st.CloseWrite()
	if c.conn.IdleTimeout() > 0 && !r.complete && !r.failed {
		if r.bound.deadline == nil {
			r.bound.deadline = sim.NewTimer(c.sim, r.onDeadline)
		}
		r.retries = true
		r.bound.deadline.Arm(requestTimeout)
	}
}

// reissue is the retry timer's callback: the next attempt.
func (r *Response) reissue() { r.client.issue(r) }

// touch records attempt progress by pushing the deadline back.
func (r *Response) touch() {
	if d := r.bound.deadline; d != nil && d.Armed() {
		d.Arm(requestTimeout)
	}
}

// onDeadline fires when the progress deadline elapses without this attempt
// receiving a byte. A request can be starved without being dead: the
// connection may be busy draining an earlier transfer (an abandoned segment
// body ahead of us in the server's FIFO stream schedule). Retrying then is
// strictly harmful — the retry queues a second full copy of the response
// behind the copy already in flight, and the storm feeds itself. So the
// attempt is only failed when the whole connection has gone quiet for a
// full timeout (a dead or blacked-out link); while packets are still
// arriving for anyone, the deadline re-arms for the remaining quiet budget.
func (r *Response) onDeadline() {
	c := r.client
	if c.conn != nil && !c.conn.Closed() {
		if quiet := c.sim.Now() - c.conn.LastActivity(); quiet < requestTimeout {
			r.bound.deadline.Arm(requestTimeout - quiet)
			return
		}
	}
	r.failAttempt(ErrRequestTimeout)
}

// failAttempt gives up on the current attempt and schedules the next one
// on the retry schedule, or fails the request for good when no attempt
// armed a deadline (a legacy connection) or attempts are exhausted.
func (r *Response) failAttempt(reason error) {
	if r.complete || r.failed {
		return
	}
	r.unbind()
	if d := r.bound.deadline; d != nil {
		d.Stop()
	}
	c := r.client
	if !r.retries || r.attempt >= maxAttempts {
		r.fail(reason)
		return
	}
	wait := backoff(r.attempt, c.sim.Rand())
	c.obs.Inc(obs.CRetries)
	c.obs.Event(obs.EvRetry, int64(r.attempt), attemptReasonCode(reason), 0)
	if r.bound.retry == nil {
		r.bound.retry = sim.NewTimer(c.sim, r.reissue)
	}
	r.bound.retry.Arm(wait)
}

// fail resolves the response as permanently failed.
func (r *Response) fail(reason error) {
	if r.complete || r.failed {
		return
	}
	r.resolve(false)
	r.unbind()
	r.client.obs.Inc(obs.CFailedRequests)
	r.client.obs.Event(obs.EvRequestFailed, int64(r.attempt), attemptReasonCode(reason), 0)
	if r.OnFail != nil {
		r.OnFail(reason)
	}
}

// resolve ends the request for good, completed or failed, just before its
// OnComplete or OnFail runs: the timers stop and it leaves the in-flight
// list. Armed, it checks that the request had not resolved before — a stale
// stream left bound could complete a request that already failed, or
// complete one twice (httpsim.completes-once).
func (r *Response) resolve(completed bool) {
	if chk := r.client.sim.Checker(); chk.Enabled() && (r.complete || r.failed) {
		chk.Failf(invariant.HttpsimCompletesOnce, "request for %s resolved again on attempt %d (complete %v, failed %v, now completed %v)",
			r.path, r.attempt, r.complete, r.failed, completed)
	}
	if completed {
		r.complete = true
	} else {
		r.failed = true
	}
	r.stopTimers()
	r.client.detach(r)
}

// Failed reports whether the request was abandoned after exhausting
// recovery.
func (r *Response) Failed() bool { return r.failed }

// detach removes r from the in-flight sweep list.
func (c *Client) detach(r *Response) {
	for i, x := range c.inflight {
		if x == r {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			return
		}
	}
}

// onConnClose fails over to the next open spare connection and re-drives
// every in-flight request through the retry schedule.
func (c *Client) onConnClose(err error) {
	next := (*quic.Conn)(nil)
	for _, cn := range c.conns {
		if !cn.Closed() {
			next = cn
			break
		}
	}
	c.conn = next
	if next != nil {
		c.obs.Inc(obs.CFailovers)
		c.obs.Event(obs.EvFailover, 0, 0, 0)
		// Stream IDs restart on the new connection: per-conn adoption state
		// from the dead one no longer means anything.
		c.pendingByStream = make(map[uint64]*Response)
		c.earlyStreams = make(map[uint64]*earlyStream)
		next.OnStream(c.onServerStream)
		next.OnClose(c.onConnClose)
	}
	swept := append([]*Response(nil), c.inflight...)
	for _, r := range swept {
		if next == nil {
			r.fail(ErrNoTransport)
		} else {
			r.failAttempt(err)
		}
	}
}

// onReliableData handles bytes on the request's reliable stream: first the
// response head, then (for reliable responses) the body.
func (r *Response) onReliableData(off, n uint64, data []byte) {
	if !r.headDone {
		// Stream frames can arrive out of order; buffer with coverage
		// tracking until the head terminator sits in the contiguous prefix.
		end := r.head.add(&r.client.store.heads, off, n, data)
		if end < 0 {
			return
		}
		buf := r.head.buf
		r.parseHead(buf[:end])
		r.bodyBase = uint64(end)
		// Deliver any body bytes that overtook the head, respecting coverage
		// (gaps stay gaps): what lies inside buf is real, the rest elided.
		for _, cr := range r.head.cov.Ranges() {
			real := min(max(cr.Start, uint64(len(buf))), cr.End)
			if real > cr.Start {
				r.onReliableData(cr.Start, real-cr.Start, buf[cr.Start:real])
			}
			if cr.End > real {
				r.onReliableData(real, cr.End-real, nil)
			}
		}
		r.head.reset(&r.client.store.heads)
		return
	}
	if r.Unreliable {
		return // body travels on the unreliable stream
	}
	if off+n <= r.bodyBase {
		return
	}
	if off < r.bodyBase {
		skip := r.bodyBase - off
		if data != nil {
			data = data[skip:]
		}
		off, n = r.bodyBase, n-skip
	}
	r.deliverBody(int64(off-r.bodyBase), int64(n), data)
}

func (r *Response) parseHead(data []byte) {
	r.headDone = true
	h, ok := scanHead(data)
	if !ok {
		r.Status = 400
		return
	}
	if _, rest, found := bytes.Cut(h.first, space); found {
		code, _, _ := bytes.Cut(rest, space)
		r.Status, _ = strconv.Atoi(string(code))
	}
	if h.length != nil {
		r.BodyLen, _ = strconv.ParseInt(string(h.length), 10, 64)
	}
	if h.stream != nil {
		r.Unreliable = true
		id, _ := strconv.ParseUint(string(h.stream), 10, 64)
		r.client.adopt(id, r)
	}
	if r.OnHead != nil {
		r.OnHead()
	}
	if r.BodyLen == 0 && !r.Unreliable {
		r.maybeComplete(true)
	}
}

// deliverBody records n arriving body bytes at bodyOff (data nil when they
// are content-free) and surfaces the part not seen before.
func (r *Response) deliverBody(bodyOff, n int64, data []byte) {
	if n == 0 {
		return
	}
	c := r.client
	start := uint64(bodyOff)
	end := start + uint64(n)
	gaps := r.received.AppendGaps(c.gapScratch[:0], start, end)
	r.received.Add(start, end)
	if r.OnBody != nil {
		for _, g := range gaps {
			var chunk []byte
			if data != nil {
				chunk = data[g.Start-start : g.End-start]
			}
			r.OnBody(int64(g.Start), int64(g.Len()), chunk)
		}
	}
	c.gapScratch = gaps[:0]
	r.maybeComplete(r.finSeen)
}

func (r *Response) deliverLoss(bodyOff, length int64) {
	c := r.client
	gaps := r.received.AppendGaps(c.gapScratch[:0], uint64(bodyOff), uint64(bodyOff+length))
	for _, g := range gaps {
		r.lost.Add(g.Start, g.End)
		if r.OnLost != nil {
			r.OnLost(int64(g.Start), int64(g.Len()))
		}
	}
	c.gapScratch = gaps[:0]
	r.maybeComplete(r.finSeen)
}

func (r *Response) onReliableFin(size uint64) {
	if !r.Unreliable && r.headDone {
		r.finSeen = true
		r.maybeComplete(true)
	}
}

func (r *Response) onUnreliableFin(final uint64) {
	r.finSeen = true
	if r.BodyLen == 0 {
		r.BodyLen = int64(final)
	}
	r.maybeComplete(true)
}

// maybeComplete fires OnComplete once the body is fully accounted for.
func (r *Response) maybeComplete(finKnown bool) {
	if r.complete || !r.headDone || !finKnown {
		return
	}
	if r.BodyLen > 0 && !quic.CoveredBy(&r.received, &r.lost, 0, uint64(r.BodyLen)) {
		return
	}
	r.resolve(true)
	if r.OnComplete != nil {
		r.OnComplete()
	}
}

// adopt binds the unreliable stream streamID, which r's current attempt
// announced, to r, flushing any data that arrived early; a stream not yet
// arrived is bound when it does (onServerStream).
func (c *Client) adopt(streamID uint64, r *Response) {
	early, ok := c.earlyStreams[streamID]
	if !ok {
		c.pendingByStream[streamID] = r
		r.bodyID = streamID
		return
	}
	delete(c.earlyStreams, streamID)
	r.attach(early.st)
	for _, ch := range early.chunks {
		r.deliverBody(int64(ch.off), int64(ch.n), ch.data)
	}
	for _, l := range early.losses {
		r.deliverLoss(int64(l[0]), int64(l[1]))
	}
	if early.fin {
		r.onUnreliableFin(early.final)
	}
	c.store.early.Put(early)
}

// onServerStream handles server-initiated streams (unreliable bodies).
func (c *Client) onServerStream(st *quic.Stream) {
	if r, ok := c.pendingByStream[st.ID()]; ok {
		delete(c.pendingByStream, st.ID())
		if r != nil { // nil: its attempt is over, and the stream stays unbound
			r.bodyID = 0
			r.attach(st)
		}
		return
	}
	// Head not seen yet: buffer until adopt rebinds the stream's callbacks.
	early := c.store.early.Get()
	if early.onData == nil {
		early.onData, early.onLost, early.onFin = early.data, early.lostRange, early.finished
	}
	early.st = st
	c.earlyStreams[st.ID()] = early
	st.OnData(early.onData)
	st.OnLost(early.onLost)
	st.OnFin(early.onFin)
}

// attach binds the adopted unreliable body stream st to r's current attempt.
func (r *Response) attach(st *quic.Stream) {
	if r.bound.bodyData == nil {
		r.bound.bodyData, r.bound.bodyLost, r.bound.bodyFin = r.onBodyData, r.onBodyLost, r.onUnreliableFin
	}
	r.body = st
	st.OnData(r.bound.bodyData)
	st.OnLost(r.bound.bodyLost)
	st.OnFin(r.bound.bodyFin)
}

// onRequestData is the request stream's data callback.
func (r *Response) onRequestData(off, n uint64, data []byte) {
	r.touch()
	r.onReliableData(off, n, data)
}

// onBodyData is the adopted body stream's data callback.
func (r *Response) onBodyData(off, n uint64, data []byte) {
	r.touch()
	r.deliverBody(int64(off), int64(n), data)
}

// onBodyLost is the adopted body stream's loss callback.
func (r *Response) onBodyLost(off, n uint64) {
	r.touch()
	r.deliverLoss(int64(off), int64(n))
}
