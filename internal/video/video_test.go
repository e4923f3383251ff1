package video

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"voxel/internal/stats"
)

func TestLadderMatchesTable2(t *testing.T) {
	if Ladder[0].AvgBitrate != 0.16e6 || Ladder[0].Resolution != "144p" {
		t.Fatalf("Q0 wrong: %+v", Ladder[0])
	}
	if Ladder[12].AvgBitrate != 10e6 || Ladder[12].Resolution != "2160p" {
		t.Fatalf("Q12 wrong: %+v", Ladder[12])
	}
	if Ladder[9].AvgBitrate != 4.3e6 || Ladder[9].Resolution != "1080p" {
		t.Fatalf("Q9 wrong: %+v", Ladder[9])
	}
	for i := 1; i < NumQualities; i++ {
		if Ladder[i].AvgBitrate <= Ladder[i-1].AvgBitrate {
			t.Fatalf("ladder not monotone at %d", i)
		}
	}
}

func TestLoadKnownTitles(t *testing.T) {
	for _, name := range AllTitles() {
		v, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if v.Segments != DefaultSegments {
			t.Fatalf("%s: %d segments, want %d", name, v.Segments, DefaultSegments)
		}
	}
	if _, err := Load("nope"); err == nil {
		t.Fatal("unknown title should error")
	}
	if len(AllTitles()) != 14 {
		t.Fatalf("14 titles expected, got %d", len(AllTitles()))
	}
}

func TestSegmentStructure(t *testing.T) {
	v := MustLoad("BBB")
	s := v.Segment(0, 12)
	if len(s.Frames) != FramesPerSeg {
		t.Fatalf("%d frames, want %d", len(s.Frames), FramesPerSeg)
	}
	if s.Frames[0].Type != IFrame {
		t.Fatal("frame 0 must be the I-frame")
	}
	if len(s.Frames[0].Refs) != 0 {
		t.Fatal("I-frame must not reference anything")
	}
	for i := 1; i < FramesPerSeg; i++ {
		f := s.Frames[i]
		if f.Type == IFrame {
			t.Fatalf("frame %d: only one I-frame per segment expected", i)
		}
		if len(f.Refs) == 0 {
			t.Fatalf("frame %d (%v) has no references", i, f.Type)
		}
		for _, r := range f.Refs {
			if r == i {
				t.Fatalf("frame %d references itself", i)
			}
			if r < 0 || r >= FramesPerSeg {
				t.Fatalf("frame %d references out-of-range %d", i, r)
			}
		}
		if f.Type == PFrame && i%4 != 0 {
			t.Fatalf("P-frame at unexpected position %d", i)
		}
	}
}

func TestFrameOffsetsPartitionSegment(t *testing.T) {
	v := MustLoad("Sintel")
	s := v.Segment(10, 9)
	total := 0
	for i := range s.Frames {
		start, end := s.FrameRange(i)
		if start != total {
			t.Fatalf("frame %d starts at %d, want %d", i, start, total)
		}
		if end-start != s.Frames[i].Size {
			t.Fatalf("frame %d range size mismatch", i)
		}
		hs, he := s.HeaderRange(i)
		bs, be := s.BodyRange(i)
		if hs != start || he != bs || be != end {
			t.Fatalf("frame %d header/body ranges inconsistent", i)
		}
		if s.Frames[i].HeaderSize > s.Frames[i].Size {
			t.Fatalf("frame %d header larger than frame", i)
		}
		total = end
	}
	if total != s.TotalBytes() {
		t.Fatalf("offsets don't cover segment: %d vs %d", total, s.TotalBytes())
	}
}

func TestByteSharesMatchPaper(t *testing.T) {
	// §5: ≈15% I, ≈65% P, ≈20% B across the canonical titles.
	var iS, pS, bS []float64
	for _, name := range TestTitles() {
		v := MustLoad(name)
		for idx := 0; idx < 20; idx++ {
			i, p, b := v.Segment(idx, 12).ByteShares()
			iS = append(iS, i)
			pS = append(pS, p)
			bS = append(bS, b)
		}
	}
	if m := stats.Mean(iS); m < 0.10 || m > 0.20 {
		t.Errorf("I share = %.3f, want ≈0.15", m)
	}
	if m := stats.Mean(pS); m < 0.55 || m > 0.72 {
		t.Errorf("P share = %.3f, want ≈0.65", m)
	}
	if m := stats.Mean(bS); m < 0.12 || m > 0.30 {
		t.Errorf("B share = %.3f, want ≈0.20", m)
	}
}

func TestVBRStatisticsMatchTable1(t *testing.T) {
	// Per-title mean ≈ ladder bitrate; stddev ≈ Tab. 1 within tolerance.
	for _, name := range TestTitles() {
		v := MustLoad(name)
		rates := v.SegmentBitrates(12)
		mean := stats.Mean(rates) / 1e6
		sd := stats.StdDev(rates) / 1e6
		if math.Abs(mean-10) > 2.0 {
			t.Errorf("%s: mean bitrate %.2f Mbps, want ≈10", name, mean)
		}
		if math.Abs(sd-v.StdDevMbps) > v.StdDevMbps*0.55 {
			t.Errorf("%s: stddev %.2f Mbps, want ≈%.2f", name, sd, v.StdDevMbps)
		}
	}
}

func TestCappedVBR(t *testing.T) {
	// §5: peak bitrate at most 200% of average ("2x capped").
	for _, name := range AllTitles() {
		v := MustLoad(name)
		avg := Ladder[12].AvgBitrate
		for idx := 0; idx < v.Segments; idx++ {
			if br := v.Segment(idx, 12).Bitrate(); br > 2.05*avg {
				t.Fatalf("%s seg %d: bitrate %.1f Mbps exceeds 2× cap", name, idx, br/1e6)
			}
		}
	}
}

func TestSintelMoreVariableThanToS(t *testing.T) {
	sintel := stats.StdDev(MustLoad("Sintel").SegmentBitrates(12))
	tos := stats.StdDev(MustLoad("ToS").SegmentBitrates(12))
	if sintel <= tos {
		t.Fatalf("Sintel stddev %.0f should exceed ToS %.0f (Tab. 1)", sintel, tos)
	}
}

func TestQualityScalesSizes(t *testing.T) {
	v := MustLoad("ED")
	for idx := 0; idx < 5; idx++ {
		prev := -1
		for q := Quality(0); q < NumQualities; q++ {
			tb := v.Segment(idx, q).TotalBytes()
			if tb <= prev {
				t.Fatalf("seg %d: bytes not increasing at %v (%d <= %d)", idx, q, tb, prev)
			}
			prev = tb
		}
	}
}

func TestVBRShapeSharedAcrossQualities(t *testing.T) {
	// The same segments must be the big ones at every quality (2-pass VBR).
	v := MustLoad("BBB")
	hi := v.SegmentBitrates(12)
	lo := v.SegmentBitrates(6)
	// rank correlation sign check on a few extreme pairs
	maxI, minI := 0, 0
	for i := range hi {
		if hi[i] > hi[maxI] {
			maxI = i
		}
		if hi[i] < hi[minI] {
			minI = i
		}
	}
	if lo[maxI] <= lo[minI] {
		t.Fatal("VBR shape not preserved across qualities")
	}
}

func TestDeterministicSynthesis(t *testing.T) {
	a := MustLoad("ToS").Segment(33, 9)
	b := MustLoad("ToS").Segment(33, 9)
	if a.TotalBytes() != b.TotalBytes() || a.Complexity != b.Complexity {
		t.Fatal("synthesis not deterministic across Video instances")
	}
	for i := range a.Frames {
		if a.Frames[i].Size != b.Frames[i].Size {
			t.Fatal("frame sizes differ across instances")
		}
	}
}

func TestSegmentCaching(t *testing.T) {
	v := MustLoad("BBB")
	if v.Segment(1, 5) != v.Segment(1, 5) {
		t.Fatal("segment cache not effective")
	}
}

func TestReferenceGraph(t *testing.T) {
	s := MustLoad("BBB").Segment(0, 12)
	inbound := s.InboundRefs()
	trans := s.TransitiveDependents()
	if inbound[0] == 0 {
		t.Fatal("the I-frame must be referenced")
	}
	// The I-frame anchors the GOP: almost everything transitively depends
	// on it.
	if trans[0] < FramesPerSeg/2 {
		t.Fatalf("transitive dependents of I-frame = %d, want most of segment", trans[0])
	}
	// Transitive count ≥ inbound count for every frame.
	for i := range inbound {
		if trans[i] < inbound[i] {
			t.Fatalf("frame %d: transitive %d < inbound %d", i, trans[i], inbound[i])
		}
	}
	// There must be both referenced and unreferenced B frames (B-pyramid).
	refB, unrefB := 0, 0
	for i, f := range s.Frames {
		if f.Type != BFrame {
			continue
		}
		if s.Referenced(i) {
			refB++
		} else {
			unrefB++
		}
	}
	if refB == 0 || unrefB == 0 {
		t.Fatalf("want both referenced (%d) and unreferenced (%d) B frames", refB, unrefB)
	}
	// Early P frames must matter more (transitively) than late ones.
	if trans[4] <= trans[92] {
		t.Fatalf("P4 transitive %d should exceed P92 %d", trans[4], trans[92])
	}
}

func TestP9StaticP10Busy(t *testing.T) {
	p9 := MustLoad("P9").Segment(5, 12)
	p10 := MustLoad("P10").Segment(5, 12)
	if p9.Frames[50].Motion >= p10.Frames[50].Motion {
		t.Fatal("P9 frames should move less than P10 frames")
	}
	var m9, m10 float64
	for i := range p9.Frames {
		m9 += p9.Frames[i].Motion
		m10 += p10.Frames[i].Motion
	}
	if m9/96 > 0.1 {
		t.Fatalf("P9 mean frame motion %.3f too high for an unboxing video", m9/96)
	}
	if m10/96 < 0.5 {
		t.Fatalf("P10 mean frame motion %.3f too low for a dance video", m10/96)
	}
}

func TestPropertyGraphAcyclicAndBounded(t *testing.T) {
	f := func(segRaw uint8, qRaw uint8, titleRaw uint8) bool {
		titles := AllTitles()
		v := MustLoad(titles[int(titleRaw)%len(titles)])
		s := v.Segment(int(segRaw)%v.Segments, Quality(qRaw)%NumQualities)
		for i := range s.TransitiveDependents() {
			if s.TransitiveDependents()[i] >= FramesPerSeg {
				return false // would imply a cycle through itself
			}
		}
		// total bytes must be positive and frames must cover it
		return s.TotalBytes() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestVideoSegmentConcurrent(t *testing.T) {
	// A shared video is filled lazily from any goroutine: every caller of a
	// key must end up with the same *Segment, whoever synthesized it first.
	v := MustLoad("ToS")
	v.Segments = 6
	const workers = 8
	got := make([][]*Segment, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := 0; idx < v.Segments; idx++ {
				for q := Quality(0); q < NumQualities; q++ {
					got[w] = append(got[w], v.Segment(idx, q))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k, s := range got[w] {
			if s != got[0][k] {
				t.Fatalf("worker %d, key %d: got a different segment pointer", w, k)
			}
		}
	}
	for k, s := range got[0] {
		if s != v.Segment(k/NumQualities, Quality(k%NumQualities)) {
			t.Fatalf("key %d: a later call returned a different segment", k)
		}
	}
}

func TestSegmentsShareOneGOP(t *testing.T) {
	// The reference graph depends on FramesPerSeg alone: every segment of
	// every title reads the same Refs, inbound and transitive arrays.
	a := MustLoad("BBB").Segment(0, 0)
	for _, title := range []string{"BBB", "P10"} {
		v := MustLoad(title)
		for idx := 0; idx < v.Segments; idx += 37 {
			for q := Quality(0); q < NumQualities; q += 6 {
				b := v.Segment(idx, q)
				if &b.InboundRefs()[0] != &a.InboundRefs()[0] || &b.TransitiveDependents()[0] != &a.TransitiveDependents()[0] {
					t.Fatalf("%s seg %d Q%d has its own dependency counts", title, idx, q)
				}
				for i := 1; i < FramesPerSeg; i++ {
					if &b.Frames[i].Refs[0] != &a.Frames[i].Refs[0] {
						t.Fatalf("%s seg %d Q%d frame %d has its own Refs", title, idx, q, i)
					}
				}
			}
		}
	}
	// Shared, so nobody may grow one frame's Refs into the next frame's.
	for i, f := range a.Frames {
		if cap(f.Refs) != len(f.Refs) {
			t.Fatalf("frame %d: Refs has spare capacity %d", i, cap(f.Refs)-len(f.Refs))
		}
	}
}

func TestEvalOrderFollowsReferences(t *testing.T) {
	s := MustLoad("ED").Segment(3, 5)
	pos := make([]int, FramesPerSeg) // position in EvalOrder, +1
	for k, i := range s.EvalOrder() {
		if pos[i] != 0 {
			t.Fatalf("frame %d appears twice", i)
		}
		pos[i] = k + 1
		for _, r := range s.Frames[i].Refs {
			if pos[r] == 0 {
				t.Fatalf("frame %d is evaluated before its reference %d", i, r)
			}
		}
	}
	if len(s.EvalOrder()) != FramesPerSeg {
		t.Fatalf("EvalOrder has %d frames", len(s.EvalOrder()))
	}
	// Affected(i): i, then exactly its transitive dependents, in EvalOrder —
	// every one of them reachable from i through a reference inside the set.
	for i := range s.Frames {
		aff := s.Affected(i)
		if aff[0] != i || len(aff) != 1+s.TransitiveDependents()[i] {
			t.Fatalf("Affected(%d) = %v, want %d and its %d dependents", i, aff, i, s.TransitiveDependents()[i])
		}
		in := map[int]bool{i: true}
		for k, x := range aff[1:] {
			if k > 0 && pos[x] <= pos[aff[k]] {
				t.Fatalf("Affected(%d) is not in EvalOrder at %d", i, x)
			}
			depends := false
			for _, r := range s.Frames[x].Refs {
				depends = depends || in[r]
			}
			if !depends {
				t.Fatalf("Affected(%d) lists %d, which references nothing in the set", i, x)
			}
			in[x] = true
		}
	}
}

// TestSynthesisReusesGenerators: deriving a segment's content and
// synthesizing its frames each seed a pooled generator instead of
// allocating a 607-word source, and hand it back. So what a warm call
// allocates beyond the segment it returns stays under one generator's
// state. Only the median over many calls is bounded: under the race
// detector sync.Pool drops one Put in four, while a leaked Put costs every
// call a generator.
func TestSynthesisReusesGenerators(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a Put lands where the next Get looks
	const generator = 607 * 8
	segment := int64(unsafe.Sizeof(Segment{})+FramesPerSeg*unsafe.Sizeof(Frame{})) + 8*(FramesPerSeg+1)
	v := MustLoad("BBB")
	for _, c := range []struct {
		name   string
		call   func(i int)
		beyond int64
	}{
		{"deriveContent", func(i int) { v.deriveContent(i % v.Segments) }, 0},
		{"synthesize", func(i int) { v.synthesize(i%v.Segments, Quality(i%NumQualities)) }, segment},
	} {
		c.call(0)
		per := make([]int64, 201)
		var before, after runtime.MemStats
		for i := range per {
			runtime.ReadMemStats(&before)
			c.call(i)
			runtime.ReadMemStats(&after)
			per[i] = int64(after.TotalAlloc-before.TotalAlloc) - c.beyond
		}
		slices.Sort(per)
		if b := per[len(per)/2]; b >= generator {
			t.Errorf("a warm %s allocates %d B beyond its segment (median of %d calls): a generator is %d B", c.name, b, len(per), generator)
		}
	}
}
