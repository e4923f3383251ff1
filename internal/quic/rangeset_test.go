package quic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeSetAddMerge(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	if len(s.Ranges()) != 2 {
		t.Fatalf("want 2 ranges, got %v", s.Ranges())
	}
	s.Add(20, 30) // bridges the gap (adjacent merge)
	if len(s.Ranges()) != 1 || s.Ranges()[0] != (ByteRange{10, 40}) {
		t.Fatalf("merge failed: %v", s.Ranges())
	}
	s.Add(5, 15) // overlap left
	if s.Ranges()[0] != (ByteRange{5, 40}) {
		t.Fatalf("left extend failed: %v", s.Ranges())
	}
	s.Add(0, 100) // engulf
	if len(s.Ranges()) != 1 || s.Ranges()[0] != (ByteRange{0, 100}) {
		t.Fatalf("engulf failed: %v", s.Ranges())
	}
}

func TestRangeSetEmptyAdd(t *testing.T) {
	var s RangeSet
	s.Add(5, 5)
	s.Add(7, 3)
	if !s.IsEmpty() {
		t.Fatalf("degenerate adds should be ignored: %v", s.Ranges())
	}
}

func TestRangeSetContains(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	if !s.Contains(10, 20) || !s.Contains(12, 18) {
		t.Fatal("Contains inside range failed")
	}
	if s.Contains(10, 25) || s.Contains(25, 35) || s.Contains(9, 11) {
		t.Fatal("Contains across gap should be false")
	}
	if !s.Contains(15, 15) {
		t.Fatal("empty interval is always contained")
	}
}

func TestRangeSetGaps(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	gaps := s.AppendGaps(nil, 0, 50)
	want := []ByteRange{{0, 10}, {20, 30}, {40, 50}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
	if g := s.AppendGaps(nil, 12, 18); g != nil {
		t.Fatalf("fully covered interval should have no gaps, got %v", g)
	}
	if g := s.AppendGaps(nil, 22, 28); len(g) != 1 || g[0] != (ByteRange{22, 28}) {
		t.Fatalf("fully uncovered: %v", g)
	}
}

func TestRangeSetContiguousFrom(t *testing.T) {
	var s RangeSet
	s.Add(0, 100)
	s.Add(150, 200)
	if got := s.ContiguousFrom(0); got != 100 {
		t.Fatalf("ContiguousFrom(0) = %d, want 100", got)
	}
	if got := s.ContiguousFrom(100); got != 100 {
		t.Fatalf("ContiguousFrom(100) = %d, want 100 (uncovered)", got)
	}
	if got := s.ContiguousFrom(160); got != 200 {
		t.Fatalf("ContiguousFrom(160) = %d, want 200", got)
	}
}

func TestRangeSetMinMax(t *testing.T) {
	var s RangeSet
	if _, ok := s.Min(); ok {
		t.Fatal("empty set should have no min")
	}
	s.Add(50, 60)
	s.Add(10, 20)
	if mn, _ := s.Min(); mn != 10 {
		t.Fatalf("min = %d", mn)
	}
	if mx, _ := s.Max(); mx != 60 {
		t.Fatalf("max = %d", mx)
	}
}

func TestRangeSetMiddleInsertAndMerge(t *testing.T) {
	build := func() *RangeSet {
		var s RangeSet
		s.Add(10, 20)
		s.Add(30, 40)
		s.Add(50, 60)
		return &s
	}
	s := build()
	s.Add(22, 28) // pure insert between existing ranges
	want := []ByteRange{{10, 20}, {22, 28}, {30, 40}, {50, 60}}
	if got := s.Ranges(); len(got) != 4 || got[1] != want[1] {
		t.Fatalf("middle insert: %v, want %v", got, want)
	}
	s = build()
	s.Add(25, 30) // right-adjacent to {30,40}
	if got := s.Ranges(); len(got) != 3 || got[1] != (ByteRange{25, 40}) {
		t.Fatalf("adjacent merge: %v", got)
	}
	s = build()
	s.Add(15, 55) // spans all three
	if got := s.Ranges(); len(got) != 1 || got[0] != (ByteRange{10, 60}) {
		t.Fatalf("spanning merge: %v", got)
	}
}

func TestRangeSetAdjacencyAtMaxOffset(t *testing.T) {
	const max = ^uint64(0)
	var s RangeSet
	s.Add(max-10, max)
	s.Add(100, max-10) // adjacent at max-10: must merge without overflow
	if got := s.Ranges(); len(got) != 1 || got[0] != (ByteRange{100, max}) {
		t.Fatalf("adjacency at max offset: %v", got)
	}
	if !s.Contains(max-1, max) {
		t.Fatal("top byte not covered")
	}
	s.Add(0, 50)
	if got := s.Ranges(); len(got) != 2 || got[0] != (ByteRange{0, 50}) {
		t.Fatalf("low insert below max range: %v", got)
	}
}

func TestRangeSetInsertAtFullCapacity(t *testing.T) {
	// Grow the backing array to exactly full occupancy, then force middle
	// insertions that must open a slot while append reallocates.
	var s RangeSet
	for i := uint64(0); i < 64; i++ {
		s.Add(i*10, i*10+4) // disjoint, non-adjacent
	}
	for cap(s.ranges) != len(s.ranges) {
		n := uint64(len(s.ranges))
		s.Add(n*10, n*10+4)
	}
	before := len(s.ranges)
	s.Add(5, 8) // between {0,4} and {10,14}
	if len(s.ranges) != before+1 {
		t.Fatalf("len = %d, want %d", len(s.ranges), before+1)
	}
	if s.ranges[1] != (ByteRange{5, 8}) || s.ranges[0] != (ByteRange{0, 4}) || s.ranges[2] != (ByteRange{10, 14}) {
		t.Fatalf("neighborhood after full-capacity insert: %v", s.ranges[:3])
	}
	for i := 3; i < len(s.ranges); i++ {
		if s.ranges[i].Start <= s.ranges[i-1].End {
			t.Fatalf("tail corrupted at %d: %v", i, s.ranges[i-1:i+1])
		}
	}
}

// Property: RangeSet coverage matches a brute-force bitmap.
func TestPropertyRangeSetMatchesBitmap(t *testing.T) {
	f := func(ops []uint16) bool {
		const universe = 256
		var s RangeSet
		bitmap := make([]bool, universe)
		for _, op := range ops {
			start := uint64(op % universe)
			length := uint64((op >> 8) % 32)
			end := start + length
			if end > universe {
				end = universe
			}
			s.Add(start, end)
			for i := start; i < end; i++ {
				bitmap[i] = true
			}
		}
		// Coverage count must match.
		var want uint64
		for _, b := range bitmap {
			if b {
				want++
			}
		}
		if s.CoveredBytes() != want {
			return false
		}
		// Ranges must be sorted, non-overlapping, non-adjacent.
		rs := s.Ranges()
		for i := range rs {
			if rs[i].End <= rs[i].Start {
				return false
			}
			if i > 0 && rs[i].Start <= rs[i-1].End {
				return false
			}
		}
		// Spot-check Contains against the bitmap.
		for x := uint64(0); x < universe; x += 7 {
			if s.Contains(x, x+1) != bitmap[x] {
				return false
			}
		}
		// Gaps + coverage must partition the universe.
		var gapBytes uint64
		for _, g := range s.AppendGaps(nil, 0, universe) {
			gapBytes += g.Len()
		}
		return gapBytes+s.CoveredBytes() == universe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
