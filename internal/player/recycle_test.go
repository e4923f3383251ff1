package player

import (
	"slices"
	"testing"
	"time"

	"voxel/internal/abr"
	"voxel/internal/quic"
	"voxel/internal/recycletest"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// TestRecycledDownloadLooksFresh: Release hands every download record of the
// world back to the kernel's store scrubbed — each field zero, so that no
// player, response or telemetry scope of the dead world stays reachable,
// but the storage of its coverage sets and its hooks, which are bound to the
// record itself — and the next world's downloads get those, in the order
// the dead world took them, and settle their coverage in the storage the
// records kept.
func TestRecycledDownloadLooksFresh(t *testing.T) {
	sim.DropReleased()
	cfg := Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 3}
	r := buildRig(t, trace.Constant("c", 8e6, 3600), 32, 4, cfg)
	r.pl.Run(nil)
	r.s.RunUntil(3 * time.Second) // some segments settled, one in flight
	store := r.pl.store
	made := slices.Clone(store.All())
	if len(made) < 2 || r.pl.dl == nil || made[0].received.IsEmpty() {
		t.Fatalf("the world is too tidy to prove anything: %d records, one in flight %v", len(made), r.pl.dl != nil)
	}
	kept := make([]hooks, len(made))
	for i, dl := range made {
		kept[i] = dl.hooks
		recycletest.Dirty(dl)
		dl.hooks = kept[i] // bound to the record itself, and kept: never dirty
	}
	r.s.Release()
	if store.Lent() != 0 || !slices.Equal(store.All(), made) {
		t.Fatalf("after Release the store has %d records out and holds %d, want none out and the world's %d", store.Lent(), len(store.All()), len(made))
	}
	for i, dl := range made {
		if h := dl.hooks; h.bodyChunk == nil || h.bodyComplete == nil || h.bodyFail == nil || h.relComplete == nil || h.relFail == nil {
			t.Errorf("record %d lost its hooks across worlds", i)
		}
		dl.hooks = hooks{}
		recycletest.CheckScrubbed(t, dl, "coverage.received.ranges", "coverage.lost.ranges")
		dl.hooks = kept[i]
	}

	// The next two worlds take the same records, and the second settles
	// segment 0's coverage in the storage the first grew for it.
	var storage *quic.ByteRange
	for world := 0; world < 2; world++ {
		r = buildRig(t, trace.Constant("c", 8e6, 3600), 32, 4, cfg)
		r.pl.Run(nil)
		r.s.RunUntil(3 * time.Second)
		got := r.pl.downloads[0]
		if got != made[0] || got.p != r.pl || got.received.IsEmpty() {
			t.Fatalf("world %d's first download is %p on player %p, want the recycled %p on its own player, settled", world, got, got.p, made[0])
		}
		if world == 1 && &got.received.Ranges()[0] != storage {
			t.Fatal("a warm world's first download settled its coverage outside the storage its record kept")
		}
		storage = &got.received.Ranges()[0]
		if world == 0 {
			r.s.Release()
		}
	}
	r.s.Release()
}
