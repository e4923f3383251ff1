package httpsim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/recycletest"
	"voxel/internal/sim"
)

// TestReleasedKernelPinsNothing is quic's test of the same name one layer up:
// the kernel's exchange store outlives the world, and holds every response
// the world issued — whose callbacks close over the caller, and whose client
// reaches the whole world — until Release takes them back, and with them the
// server's request readers and the client's early stream buffers still out.
// Two requests, one per delivery mode, are cut off mid-flight over a lossy
// link with deadlines armed, beside a request whose head never completes and
// an unreliable stream no head announces. After Release, neither what the
// callbacks captured, nor the world (a sentinel only the origin's handler
// holds, reachable from a reader through its server), nor the object it
// served may stay reachable through the kernel, and no kept timer is armed.
func TestReleasedKernelPinsNothing(t *testing.T) {
	s := sim.New(1)
	var store *exchangeStore
	gone := make(chan string, 3)
	func() {
		obj := new([1 << 20]byte)
		runtime.SetFinalizer(obj, func(*[1 << 20]byte) { gone <- "the served object" })
		world := new([16]byte)
		runtime.SetFinalizer(world, func(*[16]byte) { gone <- "the world" })
		handler := HandlerFunc(func(string) (Object, error) {
			world[0]++
			return BytesObject(obj[:]), nil
		})
		path := netem.NewFixedPath(s, 20e6, 64)
		path.Down.Impair(netem.IIDLoss{P: 0.05}, 1)
		cc, sc := quic.NewPair(s, path, quic.Config{IdleTimeout: clientIdle}, quic.Config{})
		NewServer(sc, handler, ServerOptions{})
		client := NewClient(cc)
		cc.OpenStream(false).Write([]byte("GET /v HTTP/1.1\r\n")) // no terminator
		sc.OpenStream(true).WriteZeros(3000)                      // announced by no head
		captured := new([16]byte)
		runtime.SetFinalizer(captured, func(*[16]byte) { gone <- "a response callback's capture" })
		for _, unreliable := range []bool{true, false} {
			r := client.Get("/v", nil, unreliable, nil)
			r.OnBody = func(int64, int64, []byte) { captured[0]++ }
			r.OnLost = func(int64, int64) { captured[1]++ }
			r.OnComplete = func() { captured[2]++ }
			r.OnFail = func(error) { captured[3]++ }
		}
		s.RunUntil(300 * time.Millisecond)
		store = client.store
		if store.responses.Lent() != 2 || store.readers.Lent() != 1 || store.early.Lent() != 1 ||
			captured[0] == 0 || captured[1] == 0 || captured[2]+captured[3] != 0 {
			t.Fatalf("the world is too tidy to prove anything: %d responses, %d readers, %d early buffers, %d chunks, %d losses, %d resolved",
				store.responses.Lent(), store.readers.Lent(), store.early.Lent(), captured[0], captured[1], captured[2]+captured[3])
		}
		for _, r := range store.responses.All() {
			if d := r.bound.deadline; d == nil || !d.Armed() {
				t.Fatal("the world is too tidy to prove anything: a response's deadline is not armed")
			}
		}
	}()
	s.Release()
	if store.responses.Lent() != 0 || len(store.responses.All()) != 2 || store.readers.Lent() != 0 || store.early.Lent() != 0 {
		t.Fatalf("the released kernel has %d of %d responses, %d readers and %d early buffers out, want 0 of 2 and none",
			store.responses.Lent(), len(store.responses.All()), store.readers.Lent(), store.early.Lent())
	}
	for _, r := range store.responses.All() {
		if r.bound.deadline.Armed() {
			t.Fatal("a released response kept its deadline armed")
		}
	}
	left := 3
	for i := 0; i < 50 && left > 0; i++ {
		runtime.GC()
		select {
		case <-gone:
			left--
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(s) // and through it the store, whether or not the free list kept it
	if left > 0 {
		t.Fatalf("%d of the world, the object it served and a response callback's capture are still reachable from the released kernel's exchange store", left)
	}
}

// TestRecycledResponseLooksFresh: Release hands every response of the world
// back to the store scrubbed — each field zero but the coverage storage a
// response keeps for the next world, and its binding — and the next world's
// requests get those, in the order the dead world issued them. The kept
// timers come back disarmed, so no event handle of the dead world is left to
// act on the next, and they arm and fire in the next world.
func TestRecycledResponseLooksFresh(t *testing.T) {
	sim.DropReleased()
	fx := newIdleFixture(t, clientIdle, 10, 32, nil, ServerOptions{})
	r, second := fx.client.Get("/a", nil, false, nil), fx.client.Get("/a", nil, false, nil)
	second.failAttempt(ErrRequestTimeout) // the world ends with its retry armed
	kept := []binding{r.bound, second.bound}
	if d, rt := kept[0].deadline, kept[1].retry; d == nil || !d.Armed() || rt == nil || !rt.Armed() {
		t.Fatal("the world is too tidy to prove anything: the first request's deadline or the second's retry is not armed")
	}
	for i, r := range []*Response{r, second} {
		recycletest.Dirty(r)
		r.bound = kept[i] // bound to the response itself, and kept: never dirty
	}
	store := &fx.client.store.responses
	fx.s.Release()
	if store.Lent() != 0 || !slices.Equal(store.All(), []*Response{r, second}) {
		t.Fatalf("after Release the store has %d responses out and holds %v, want none out and the world's two", store.Lent(), store.All())
	}
	for i, r := range []*Response{r, second} {
		b := r.bound
		if b.reqData == nil || b.reqFin == nil || b.deadline != kept[i].deadline || b.retry != kept[i].retry {
			t.Errorf("response %d lost its binding across worlds", i)
		}
		for _, tm := range []*sim.Timer{b.deadline, b.retry} {
			if tm != nil && tm.Armed() {
				t.Errorf("response %d kept an armed timer across worlds", i)
			}
		}
		r.bound = binding{}
		recycletest.CheckScrubbed(t, r, "received.ranges", "lost.ranges", "head.cov.ranges")
		r.bound = b
	}

	fx = newIdleFixture(t, clientIdle, 10, 32, map[string]Object{"/b": content(100)}, ServerOptions{})
	got := fx.client.Get("/b", RangeSpec{{0, 1}}, true, nil)
	if got != r || got.client != fx.client || got.path != "/b" || !got.unreliable || got.attempt != 1 {
		t.Fatalf("the next world issued %p (client %p, path %q, unreliable %v, attempt %d), want the recycled %p on its own client",
			got, got.client, got.path, got.unreliable, got.attempt, r)
	}
	if got.bound.deadline != kept[0].deadline || !got.bound.deadline.Armed() {
		t.Fatal("the recycled response did not arm its kept deadline in the next world")
	}
	if again := fx.client.Get("/b", nil, false, nil); again != second {
		t.Fatalf("the next world's second request got %p, want the dead world's second, %p", again, second)
	}
	second.failAttempt(ErrRequestTimeout) // the kept retry timer fires in this world
	fx.s.RunUntil(5 * time.Second)
	if !got.Complete() || !second.Complete() || second.attempt != 2 {
		t.Fatalf("in the next world the requests completed %v and %v (the retried one on attempt %d), want both, the second on attempt 2",
			got.Complete(), second.Complete(), second.attempt)
	}
	fx.s.Release()
}

// TestRecycledReadersAndEarlyBuffersLookFresh: the store's other pooled
// values come back the same way — a server's request reader cut off before
// its head was whole, and a client's buffer for an unreliable stream whose
// announcing head never came — scrubbed but for their bound callbacks and
// the capacity of an early buffer's lists.
func TestRecycledReadersAndEarlyBuffersLookFresh(t *testing.T) {
	sim.DropReleased()
	fx := newFixture(t, 10, 32, nil, ServerOptions{})
	st := fx.client.conn.OpenStream(false)
	st.Write([]byte("GET /a HTTP/1.1\r\n")) // no terminator yet
	body := fx.server.conn.OpenStream(true)
	body.WriteZeros(3000)
	fx.s.RunUntil(time.Second)
	store := fx.client.store
	if store.readers.Lent() != 1 || store.early.Lent() != 1 {
		t.Fatalf("the world is too tidy to prove anything: %d readers and %d early buffers out, want 1 each", store.readers.Lent(), store.early.Lent())
	}
	rd, early := store.readers.All()[0], store.early.All()[0]
	if len(early.chunks) == 0 {
		t.Fatal("the early buffer holds no chunk")
	}
	read, onData, onLost, onFin := rd.onData, early.onData, early.onLost, early.onFin
	recycletest.Dirty(rd)
	recycletest.Dirty(early)
	rd.onData, early.onData, early.onLost, early.onFin = read, onData, onLost, onFin // bound, and kept: never dirty
	fx.s.Release()
	if store.readers.Lent() != 0 || store.early.Lent() != 0 {
		t.Fatalf("after Release %d readers and %d early buffers are out, want none", store.readers.Lent(), store.early.Lent())
	}
	if rd.onData == nil || early.onData == nil || early.onLost == nil || early.onFin == nil {
		t.Fatal("a pooled reader or early buffer lost its bound callbacks")
	}
	rd.onData = nil
	early.onData, early.onLost, early.onFin = nil, nil, nil
	recycletest.CheckScrubbed(t, rd)
	recycletest.CheckScrubbed(t, early, "chunks", "losses")
}
