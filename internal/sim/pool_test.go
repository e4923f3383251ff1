package sim

import (
	"slices"
	"testing"

	"voxel/internal/recycletest"
)

// pooled is a pool's value: a field of each kind a layer's pooled values
// have, and a slice kept for its capacity.
type pooled struct {
	n    int
	p    *[16]byte
	fn   func()
	kept []*int
}

func (v *pooled) Scrub() {
	clear(v.kept[:cap(v.kept)])
	*v = pooled{kept: v.kept[:0]}
}

// TestPoolRecyclesAcrossWorlds: a pool makes a value only when none is
// stored, Put scrubs what it stores, and Get clears the slot it takes from.
// When the world ends — Release, for a pool kept in a Local slot — every
// value the world got comes back scrubbed, Put or not, and the next world
// gets them in the order the dead world first got them.
func TestPoolRecyclesAcrossWorlds(t *testing.T) {
	DropReleased()
	var slot Local[Pool[pooled, *pooled]]
	s := New(1)
	p := slot.Get(s)
	a, b := p.Get(), p.Get()
	if a == b || len(p.All()) != 2 || p.Lent() != 2 {
		t.Fatalf("an empty pool handed out %p and %p and made %d, want two new values", a, b, len(p.All()))
	}
	recycletest.Dirty(a)
	p.Put(a)
	recycletest.CheckScrubbed(t, a, "kept")
	if got := p.Get(); got != a || len(p.All()) != 2 || p.Lent() != 2 {
		t.Fatalf("Get after Put returned %p with %d made, want the stored %p and none made", got, len(p.All()), a)
	}
	if slices.ContainsFunc(p.free[:cap(p.free)], func(v *pooled) bool { return v != nil }) {
		t.Fatal("the free list still points at a value Get handed out")
	}
	c := p.Get()
	for _, v := range []*pooled{a, b, c} {
		recycletest.Dirty(v)
	}
	s.Release()

	s = New(2)
	if slot.Get(s) != p || p.Lent() != 0 || len(p.All()) != 3 {
		t.Fatalf("the released kernel's pool has %d of %d values out, want none of 3", p.Lent(), len(p.All()))
	}
	for _, v := range []*pooled{a, b, c} {
		recycletest.CheckScrubbed(t, v, "kept")
	}
	got := []*pooled{p.Get(), p.Get(), p.Get(), p.Get()}
	if !slices.Equal(got[:3], []*pooled{a, b, c}) || slices.Contains(got[:3], got[3]) {
		t.Fatalf("the next world got %p, want the dead world's %p, %p, %p in that order and then a new one", got, a, b, c)
	}
	s.Release()
	if s = New(3); !slices.Equal([]*pooled{p.Get(), p.Get(), p.Get(), p.Get()}, got) {
		t.Fatal("a world that Put nothing back did not hand its values to the next in the order it got them")
	}
	s.Release()
	DropReleased()
}
