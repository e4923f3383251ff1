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
// the kernel's response store outlives the world, and holds every response
// the world issued — whose callbacks close over the caller, and whose client
// reaches the whole world — until Release takes them back. Two requests, one
// per delivery mode, are cut off mid-flight over a lossy link with deadlines
// armed. After Release, neither what the callbacks captured, nor the world
// (a sentinel only the origin's handler holds), nor the object it served may
// stay reachable through the kernel.
func TestReleasedKernelPinsNothing(t *testing.T) {
	s := sim.New(1)
	var store *sim.Pool[Response, *Response]
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
		if store.Lent() != 2 || captured[0] == 0 || captured[1] == 0 || captured[2]+captured[3] != 0 {
			t.Fatalf("the world is too tidy to prove anything: %d responses, %d chunks, %d losses, %d resolved",
				store.Lent(), captured[0], captured[1], captured[2]+captured[3])
		}
	}()
	s.Release()
	if store.Lent() != 0 || len(store.All()) != 2 {
		t.Fatalf("the released kernel has %d of %d responses out, want 0 of 2", store.Lent(), len(store.All()))
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
		t.Fatalf("%d of the world, the object it served and a response callback's capture are still reachable from the released kernel's response store", left)
	}
}

// TestRecycledResponseLooksFresh: Release hands every response of the world
// back to the store scrubbed — each field zero but the coverage storage a
// response keeps for the next world — and the next world's requests get
// those, in the order the dead world issued them.
func TestRecycledResponseLooksFresh(t *testing.T) {
	sim.DropReleased()
	fx := newFixture(t, 10, 32, nil, ServerOptions{})
	r, second := fx.client.Get("/a", nil, false, nil), fx.client.Get("/a", nil, false, nil)
	recycletest.Dirty(r)
	recycletest.Dirty(second)
	store := fx.client.store
	fx.s.Release()
	if store.Lent() != 0 || !slices.Equal(store.All(), []*Response{r, second}) {
		t.Fatalf("after Release the store has %d responses out and holds %v, want none out and the world's two", store.Lent(), store.All())
	}
	for _, r := range []*Response{r, second} {
		recycletest.CheckScrubbed(t, r, "received.ranges", "lost.ranges", "head.cov.ranges")
	}

	fx = newFixture(t, 10, 32, nil, ServerOptions{})
	if got := fx.client.Get("/b", RangeSpec{{0, 1}}, true, nil); got != r || got.client != fx.client || got.path != "/b" || !got.unreliable || got.attempt != 1 {
		t.Fatalf("the next world issued %p (client %p, path %q, unreliable %v, attempt %d), want the recycled %p on its own client",
			got, got.client, got.path, got.unreliable, got.attempt, r)
	}
	if got := fx.client.Get("/b", nil, false, nil); got != second {
		t.Fatalf("the next world's second request got %p, want the dead world's second, %p", got, second)
	}
	fx.s.Release()
}
