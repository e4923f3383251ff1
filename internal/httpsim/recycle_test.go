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
	var store *responseStore
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
		if len(store.live) != 2 || captured[0] == 0 || captured[1] == 0 || captured[2]+captured[3] != 0 {
			t.Fatalf("the world is too tidy to prove anything: %d responses, %d chunks, %d losses, %d resolved",
				len(store.live), captured[0], captured[1], captured[2]+captured[3])
		}
	}()
	s.Release()
	if len(store.live) != 0 || len(store.free) != 2 {
		t.Fatalf("the released kernel has %d live and %d free responses, want 0 and 2", len(store.live), len(store.free))
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
	if len(store.live) != 0 || !slices.Equal(store.free, []*Response{second, r}) {
		t.Fatalf("after Release the store holds %d live responses and free %v, want none live and the world's two free, the first issued on top", len(store.live), store.free)
	}
	if slices.ContainsFunc(store.live[:cap(store.live)], func(r *Response) bool { return r != nil }) {
		t.Fatal("the store's live list still points at a response it gave back")
	}
	for _, r := range []*Response{r, second} {
		recycletest.CheckScrubbed(t, r, "received.ranges", "lost.ranges", "head.cov.ranges")
	}

	fx = newFixture(t, 10, 32, nil, ServerOptions{})
	if got := fx.client.Get("/b", RangeSpec{{0, 1}}, true, nil); got != r || got.client != fx.client || got.path != "/b" || !got.unreliable || got.attempt != 1 {
		t.Fatalf("the next world issued %p (client %p, path %q, unreliable %v, attempt %d), want the recycled %p on its own client",
			got, got.client, got.path, got.unreliable, got.attempt, r)
	}
	fx.s.Release()
}
