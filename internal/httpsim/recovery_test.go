package httpsim

import (
	"math/rand"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// clientIdle is the client connection's idle timeout in the recovery tests:
// above zero, it arms the request deadline and the retry schedule.
const clientIdle = 30 * time.Second

// A request over a fully blackholed link must terminate through the
// deadline/retry machinery in bounded simulated time — the regression this
// guards is the legacy client hanging forever on a dead path. It does so on
// the production schedule: each attempt fails at its 4 s deadline, the next
// is issued 250 ms·2^(n−1) ±12.5 % later, and the request fails for good
// after exactly maxAttempts attempts.
func TestBlackholedRequestTerminates(t *testing.T) {
	fx := newIdleFixture(t, clientIdle, 10, 32, map[string]Object{"/a": content(1 << 16)}, ServerOptions{})
	// Blackhole both directions before the request ever leaves.
	dead := netem.Window{Start: 0, End: 1 << 62}
	fx.path.Down.Impair(netem.Blackout{Windows: []netem.Window{dead}}, 1)
	fx.path.Up.Impair(netem.Blackout{Windows: []netem.Window{dead}}, 2)

	var failErr error
	var failAt sim.Time
	resp := fx.client.Get("/a", nil, false, nil)
	resp.OnFail = func(err error) { failErr, failAt = err, fx.s.Now() }
	resp.OnComplete = func() { t.Error("request on a dead link cannot complete") }

	// 4 attempts × 4 s deadline + backoffs ≈ 18 s, before the connection's
	// own 30 s idle timeout.
	issued := []sim.Time{0}
	for failErr == nil && fx.s.RunUntilBudget(60*time.Second, 1) {
		if resp.attempt > len(issued) {
			issued = append(issued, fx.s.Now())
		}
	}
	if failErr == nil {
		t.Fatalf("request did not terminate: failed=%v complete=%v", resp.Failed(), resp.Complete())
	}
	if failErr != ErrRequestTimeout {
		t.Fatalf("failed with %v, want %v", failErr, ErrRequestTimeout)
	}
	if failAt > 30*time.Second {
		t.Fatalf("termination took %v of virtual time", failAt)
	}
	if len(issued) != maxAttempts || resp.attempt != maxAttempts {
		t.Fatalf("the request made %d attempts (issued at %v), want %d", resp.attempt, issued, maxAttempts)
	}
	for n := 1; n < len(issued); n++ {
		wait := issued[n] - (issued[n-1] + requestTimeout)
		d := retryBaseDelay << (n - 1)
		if wait < d-d/8 || wait >= d+d/8 {
			t.Errorf("retry %d waited %v after its deadline, want %v ±12.5%%", n, wait, d)
		}
	}
	if want := issued[len(issued)-1] + requestTimeout; failAt != want {
		t.Fatalf("the request failed at %v, want the last attempt's deadline %v", failAt, want)
	}
}

// A transient blackout shorter than the retry budget must be survived: the
// blackout outlasts the 4 s request deadline, so the first attempt dies, a
// retry lands after the link heals, and the request completes.
func TestRetryAfterTransientBlackout(t *testing.T) {
	obj := content(1 << 16)
	fx := newIdleFixture(t, clientIdle, 10, 32, map[string]Object{"/a": obj}, ServerOptions{})
	dark := netem.Window{Start: 0, End: 6 * time.Second}
	fx.path.Down.Impair(netem.Blackout{Windows: []netem.Window{dark}}, 1)
	fx.path.Up.Impair(netem.Blackout{Windows: []netem.Window{dark}}, 2)

	var done bool
	resp := fx.client.Get("/a", nil, false, nil)
	resp.OnComplete = func() { done = true }
	resp.OnFail = func(err error) { t.Errorf("request failed: %v", err) }
	fx.s.RunUntil(60 * time.Second)
	if !done {
		t.Fatal("request did not recover after the blackout lifted")
	}
	if resp.BytesReceived() != int64(len(obj)) {
		t.Fatalf("got %d bytes, want %d", resp.BytesReceived(), len(obj))
	}
	if resp.attempt < 2 {
		t.Fatalf("the request completed on attempt %d, want a retry", resp.attempt)
	}
}

// The deadline must not fire for a request that is merely queued behind
// another transfer on a live connection: retrying there queues a second
// full copy behind the first and the storm feeds itself (the bursty-profile
// regression). The connection is visibly receiving the whole time, so the
// stuck request waits instead of retrying.
func TestDeadlineDefersToBusyConn(t *testing.T) {
	big := content(4 << 20) // ~16 s of transfer at 2 Mbps
	small := content(1 << 10)
	// The 4 s request deadline is far below the big transfer's duration.
	fx := newIdleFixture(t, clientIdle, 2, 64, map[string]Object{"/big": big, "/small": small}, ServerOptions{})

	r1 := fx.client.Get("/big", nil, false, nil)
	r2 := fx.client.Get("/small", nil, false, nil)
	var doneBig, doneSmall bool
	r1.OnComplete = func() { doneBig = true }
	r2.OnComplete = func() { doneSmall = true }
	r2.OnFail = func(err error) { t.Errorf("queued request failed: %v", err) }
	fx.s.RunUntil(120 * time.Second)
	if !doneBig || !doneSmall {
		t.Fatalf("big=%v small=%v", doneBig, doneSmall)
	}
	if got := fx.server.conn.Stats().StreamBytesSent; got > uint64(len(big)+len(small))*11/10 {
		t.Fatalf("server sent %d bytes for %d of payload: retry storm", got, len(big)+len(small))
	}
}

// When the active connection dies, in-flight requests must fail over to the
// next configured origin and complete there.
func TestFailoverToSecondOrigin(t *testing.T) {
	obj := content(1 << 16)
	objects := map[string]Object{"/a": obj}
	handler := HandlerFunc(func(path string) (Object, error) {
		if o, ok := objects[path]; ok {
			return o, nil
		}
		return nil, errNotFound{}
	})
	s := sim.New(77)
	mk := func() (*quic.Conn, *Server) {
		path := netem.NewPath(s, trace.Constant("t", 10e6, 3600), 32)
		cc, sc := quic.NewPair(s, path, quic.Config{IdleTimeout: clientIdle}, quic.Config{})
		return cc, NewServer(sc, handler, ServerOptions{})
	}
	c1, _ := mk()
	c2, _ := mk()
	client := NewClient(c1)
	client.AddFailover(c2)

	var done bool
	resp := client.Get("/a", nil, false, nil)
	resp.OnComplete = func() { done = true }
	resp.OnFail = func(err error) { t.Errorf("request failed: %v", err) }
	// Kill the primary immediately: the response must come from origin 2.
	s.Schedule(10*time.Millisecond, func() { c1.Close(quic.ErrIdleTimeout) })
	s.RunUntil(60 * time.Second)
	if !done {
		t.Fatal("request did not fail over")
	}
	if resp.BytesReceived() != int64(len(obj)) {
		t.Fatalf("got %d bytes, want %d", resp.BytesReceived(), len(obj))
	}
	if client.Conn() != c2 {
		t.Fatal("client still pinned to the dead origin")
	}
}

// An attempt's Unreliable and Status belong to that attempt: when the first
// is answered by a VOXEL-aware origin (body on an announced unreliable
// stream) and the retry lands on a VOXEL-unaware spare that answers over the
// reliable stream — the §4.2 compatibility matrix, met through failover —
// the reliable body must not be dropped as "travels on the unreliable
// stream". It used to be, and the request timed out through every remaining
// attempt.
func TestRetryOntoUnawareOriginCompletes(t *testing.T) {
	obj := ZeroObject(1 << 20)
	handler := HandlerFunc(func(string) (Object, error) { return obj, nil })
	s := sim.New(77)
	mk := func(opts ServerOptions) (*quic.Conn, *Server) {
		path := netem.NewPath(s, trace.Constant("t", 10e6, 3600), 32)
		cc, sc := quic.NewPair(s, path, quic.Config{IdleTimeout: clientIdle}, quic.Config{})
		return cc, NewServer(sc, handler, opts)
	}
	c1, aware := mk(ServerOptions{})
	c2, unaware := mk(ServerOptions{VoxelUnaware: true})
	client := NewClient(c1)
	client.AddFailover(c2)

	var done bool
	resp := client.Get("/a", nil, true, nil)
	resp.OnHead = func() {
		if resp.Unreliable { // the aware origin's head: kill it mid-body
			s.Schedule(50*time.Millisecond, func() { c1.Close(quic.ErrIdleTimeout) })
		}
	}
	resp.OnComplete = func() { done = true }
	resp.OnFail = func(err error) {
		t.Errorf("request failed with %v after %d of %d bytes", err, resp.BytesReceived(), obj.Size())
	}
	s.RunUntil(60 * time.Second)
	if aware.UnreliableBodies != 1 || unaware.RequestsServed != 1 || unaware.UnreliableBodies != 0 {
		t.Fatalf("aware origin sent %d unreliable bodies, unaware one served %d requests (%d unreliable): the scenario did not happen",
			aware.UnreliableBodies, unaware.RequestsServed, unaware.UnreliableBodies)
	}
	if !done || resp.Unreliable || resp.Status != 200 {
		t.Fatalf("done=%v unreliable=%v status=%d, want the reliable retry to complete with 200", done, resp.Unreliable, resp.Status)
	}
	if got := resp.BytesReceived() + int64(resp.Lost().CoveredBytes()); got < obj.Size() {
		t.Fatalf("received + lost cover %d of %d bytes", got, obj.Size())
	}
}

// backoff doubles from retryBaseDelay up to the retryMaxDelay cap and
// jitters each wait by ±12.5 %, drawn from the simulation's random stream.
func TestRetryBackoffDoublesToCapWithJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 8; n++ {
		d := min(retryBaseDelay<<(n-1), retryMaxDelay)
		seen := map[sim.Time]bool{}
		for i := 0; i < 200; i++ {
			wait := backoff(n, rng)
			if wait < d-d/8 || wait >= d+d/8 {
				t.Fatalf("backoff after attempt %d = %v, want %v ±12.5%%", n, wait, d)
			}
			seen[wait] = true
		}
		if len(seen) < 100 {
			t.Fatalf("backoff after attempt %d took %d distinct values in 200 draws: not jittered", n, len(seen))
		}
	}
}

// Over a legacy transport (no idle timeout) a request arms no deadline —
// on a dead link it waits as long as its connection does — and fails at the
// first transport close, without retrying on the spare connection.
func TestLegacyTransportArmsNoRecovery(t *testing.T) {
	handler := HandlerFunc(func(string) (Object, error) { return content(1 << 16), nil })
	s := sim.New(77)
	mk := func() (*quic.Conn, *Server, *netem.Path) {
		path := netem.NewPath(s, trace.Constant("t", 10e6, 3600), 32)
		cc, sc := quic.NewPair(s, path, quic.Config{}, quic.Config{})
		return cc, NewServer(sc, handler, ServerOptions{}), path
	}
	c1, _, path := mk()
	c2, spare, _ := mk()
	dead := netem.Window{Start: 0, End: 1 << 62}
	path.Down.Impair(netem.Blackout{Windows: []netem.Window{dead}}, 1)
	path.Up.Impair(netem.Blackout{Windows: []netem.Window{dead}}, 2)
	client := NewClient(c1)
	client.AddFailover(c2)

	var failErr error
	resp := client.Get("/a", nil, false, nil)
	resp.OnFail = func(err error) { failErr = err }
	s.RunUntil(time.Minute)
	if resp.retries || resp.Failed() || c1.Closed() {
		t.Fatalf("deadline armed=%v failed=%v conn closed=%v after a minute on a dead legacy link, want none",
			resp.retries, resp.Failed(), c1.Closed())
	}
	c1.Close(quic.ErrClosed)
	s.RunUntil(2 * time.Minute)
	if failErr != quic.ErrClosed || resp.attempt != 1 || spare.RequestsServed != 0 {
		t.Fatalf("failed with %v after %d attempts, spare served %d requests; want %v after 1 attempt and no retry",
			failErr, resp.attempt, spare.RequestsServed, quic.ErrClosed)
	}
}
