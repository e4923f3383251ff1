package prep

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/video"
)

func seg(title string, idx int, q video.Quality) *video.Segment {
	return video.MustLoad(title).Segment(idx, q)
}

func TestOrderIsPermutation(t *testing.T) {
	s := seg("BBB", 0, 12)
	for _, o := range Orderings() {
		order := MustOrder(s, o)
		if len(order) != video.FramesPerSeg {
			t.Fatalf("%v: %d entries", o, len(order))
		}
		if order[0] != 0 {
			t.Fatalf("%v: I-frame not first", o)
		}
		seen := make([]bool, video.FramesPerSeg)
		for _, f := range order {
			if seen[f] {
				t.Fatalf("%v: duplicate frame %d", o, f)
			}
			seen[f] = true
		}
	}
}

func TestOrderValidity(t *testing.T) {
	s := seg("BBB", 0, 12)
	cases := []struct {
		name    string
		o       Ordering
		wantErr bool
	}{
		{"original", OrderOriginal, false},
		{"unreferenced-last", OrderUnreferencedLast, false},
		{"inbound-refs", OrderByInboundRefs, false},
		{"negative", Ordering(-1), true},
		{"past-end", Ordering(len(Orderings())), true},
		{"corrupt", Ordering(97), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			order, err := Order(s, tc.o)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Order(%d): expected error, got order of %d frames", tc.o, len(order))
				}
				return
			}
			if err != nil {
				t.Fatalf("Order(%v): %v", tc.o, err)
			}
			if len(order) != video.FramesPerSeg || order[0] != 0 {
				t.Fatalf("Order(%v): bad order %v...", tc.o, order[:3])
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustOrder should panic on an unknown ordering")
		}
	}()
	MustOrder(s, Ordering(97))
}

func TestOrderOriginalIsDecodeOrder(t *testing.T) {
	s := seg("ToS", 3, 12)
	order := MustOrder(s, OrderOriginal)
	for i, f := range order {
		if f != i {
			t.Fatalf("original order perturbed at %d: %d", i, f)
		}
	}
}

func TestUnreferencedLastPutsUnreferencedAtTail(t *testing.T) {
	s := seg("BBB", 1, 12)
	order := MustOrder(s, OrderUnreferencedLast)
	// After the last referenced frame, only unreferenced frames may appear.
	seenUnref := false
	for _, f := range order[1:] {
		if !s.Referenced(f) {
			seenUnref = true
		} else if seenUnref {
			t.Fatalf("referenced frame %d appears after unreferenced frames", f)
		}
	}
	if !seenUnref {
		t.Fatal("no unreferenced frames found")
	}
}

func TestInboundRefsOrderRanksByTransitiveDeps(t *testing.T) {
	s := seg("Sintel", 2, 12)
	order := MustOrder(s, OrderByInboundRefs)
	trans := s.TransitiveDependents()
	for i := 2; i < len(order); i++ {
		if trans[order[i]] > trans[order[i-1]] {
			t.Fatalf("order not sorted by transitive deps at %d: %d > %d",
				i, trans[order[i]], trans[order[i-1]])
		}
	}
	// The tail should be dominated by unreferenced frames.
	tail := order[len(order)-10:]
	for _, f := range tail {
		if trans[f] != 0 {
			t.Fatalf("tail frame %d has %d transitive dependents", f, trans[f])
		}
	}
}

func TestCurveMonotoneForRankedOrder(t *testing.T) {
	a := NewAnalyzer()
	s := seg("BBB", 4, 12)
	points := a.curve(s, MustOrder(s, OrderByInboundRefs))
	for i := 1; i < len(points); i++ {
		if points[i].Score < points[i-1].Score-1e-9 {
			t.Fatalf("ranked curve not monotone at %d: %.6f < %.6f",
				i, points[i].Score, points[i-1].Score)
		}
		if points[i].Bytes <= points[i-1].Bytes {
			t.Fatalf("bytes not strictly increasing at %d", i)
		}
	}
	last := points[len(points)-1]
	if last.Frames != video.FramesPerSeg || last.Bytes != s.TotalBytes() {
		t.Fatalf("full point wrong: %+v vs total %d", last, s.TotalBytes())
	}
	if last.Score != a.Model.Score(a.Metric, s, qoe.PerfectDelivery(s)) {
		t.Fatal("full point score must equal pristine score")
	}
}

func TestRankedBeatsTailOrder(t *testing.T) {
	// Fig. 2b: ranked ordering tolerates far more drops than chopping the
	// decode-order tail, at the same SSIM target.
	a := NewAnalyzer()
	var rankedBetter, total int
	for idx := 0; idx < 30; idx++ {
		s := seg("BBB", idx, 12)
		ranked := a.MaxDropFraction(s, OrderByInboundRefs, 0.99)
		tail := a.MaxDropFraction(s, OrderOriginal, 0.99)
		if ranked >= tail {
			rankedBetter++
		}
		total++
	}
	if rankedBetter < total*9/10 {
		t.Fatalf("ranked ≥ tail in only %d/%d segments", rankedBetter, total)
	}
}

func TestRankedBeatsUnreferencedOnly(t *testing.T) {
	// VOXEL's ranking can also drop referenced frames, so its tolerance
	// must dominate the BETA-style order overall.
	a := NewAnalyzer()
	var sumRanked, sumUnref float64
	for idx := 0; idx < 30; idx++ {
		s := seg("Sintel", idx, 12)
		sumRanked += a.MaxDropFraction(s, OrderByInboundRefs, 0.99)
		sumUnref += a.MaxDropFraction(s, OrderUnreferencedLast, 0.99)
	}
	if sumRanked < sumUnref {
		t.Fatalf("ranked mean tolerance %.3f below unreferenced-last %.3f",
			sumRanked/30, sumUnref/30)
	}
}

func TestFig1aMedianTolerance(t *testing.T) {
	// §3: at Q12/SSIM 0.99, at least half the segments of each title
	// sustain a 10–20% frame loss. Allow a generous band around it.
	a := NewAnalyzer()
	for _, title := range video.TestTitles() {
		v := video.MustLoad(title)
		var fr []float64
		for idx := 0; idx < v.Segments; idx++ {
			fr = append(fr, a.MaxDropFraction(v.Segment(idx, 12), OrderByInboundRefs, 0.99))
		}
		med := stats.Percentile(fr, 50)
		if med < 0.05 {
			t.Errorf("%s: median tolerance %.3f too low (paper: ≥0.10)", title, med)
		}
	}
}

func TestToleranceCollapsesAtQ9(t *testing.T) {
	// Fig. 1b: at Q9 the base SSIM is already below 0.99 for most
	// segments, so tolerance vs 0.99 collapses.
	a := NewAnalyzer()
	v := video.MustLoad("ToS")
	var q12, q9 float64
	for idx := 0; idx < v.Segments; idx++ {
		q12 += a.MaxDropFraction(v.Segment(idx, 12), OrderByInboundRefs, 0.99)
		q9 += a.MaxDropFraction(v.Segment(idx, 9), OrderByInboundRefs, 0.99)
	}
	if q9 >= q12*0.5 {
		t.Fatalf("Q9 tolerance (%.3f) should collapse vs Q12 (%.3f)", q9/75, q12/75)
	}
}

func TestToleranceRecoversAt095(t *testing.T) {
	// Fig. 1c: lowering the target to 0.95 restores tolerance at Q9.
	a := NewAnalyzer()
	v := video.MustLoad("BBB")
	var at99, at95 float64
	for idx := 0; idx < v.Segments; idx++ {
		at99 += a.MaxDropFraction(v.Segment(idx, 9), OrderByInboundRefs, 0.99)
		at95 += a.MaxDropFraction(v.Segment(idx, 9), OrderByInboundRefs, 0.95)
	}
	if at95 <= at99 {
		t.Fatalf("target 0.95 tolerance (%.3f) should exceed 0.99 (%.3f)", at95/75, at99/75)
	}
	if at95/75 < 0.3 {
		t.Fatalf("tolerance at 0.95 = %.3f, want substantial", at95/75)
	}
}

func TestP9VsP10Tolerance(t *testing.T) {
	// Appendix C anchors.
	a := NewAnalyzer()
	p9 := video.MustLoad("P9")
	p10 := video.MustLoad("P10")
	var f9, f10 []float64
	for idx := 0; idx < p9.Segments; idx++ {
		f9 = append(f9, a.MaxDropFraction(p9.Segment(idx, 12), OrderByInboundRefs, 0.99))
		f10 = append(f10, a.MaxDropFraction(p10.Segment(idx, 12), OrderByInboundRefs, 0.99))
	}
	if stats.Percentile(f9, 50) < 0.14 {
		t.Errorf("P9 median tolerance %.3f, want ≥0.14", stats.Percentile(f9, 50))
	}
	if stats.Percentile(f10, 50) > 0.12 {
		t.Errorf("P10 median tolerance %.3f, want near zero", stats.Percentile(f10, 50))
	}
}

func TestDropSetIncludesReferencedFrames(t *testing.T) {
	// §3: a nontrivial share of droppable frames is referenced — VOXEL's
	// key advantage over BETA.
	a := NewAnalyzer()
	var shares []float64
	for _, title := range video.TestTitles() {
		v := video.MustLoad(title)
		for idx := 0; idx < 20; idx++ {
			s := v.Segment(idx, 12)
			drop := a.DropSet(s, OrderByInboundRefs, 0.95)
			if len(drop) > 0 {
				shares = append(shares, ReferencedShare(s, drop))
			}
		}
	}
	if len(shares) == 0 {
		t.Fatal("no drop sets found")
	}
	if m := stats.Mean(shares); m <= 0 {
		t.Fatalf("mean referenced share %.3f, want > 0", m)
	}
}

func TestAnalyzeSelectsCheapestOrdering(t *testing.T) {
	a := NewAnalyzer()
	s := seg("BBB", 5, 12)
	bound := 0.99
	plan := a.Analyze(s, bound)
	// Whatever was chosen must be at least as cheap as every alternative.
	for _, o := range Orderings() {
		points := a.curve(s, MustOrder(s, o))
		mb, ok := minBytesFor(points, bound)
		if !ok {
			continue
		}
		if mb < plan.MinBytes {
			t.Fatalf("ordering %v reaches bound with %d bytes < plan's %d (%v)",
				o, mb, plan.MinBytes, plan.Ordering)
		}
	}
	if plan.ReliableSize <= 0 || plan.ReliableSize >= s.TotalBytes() {
		t.Fatalf("reliable size %d out of range", plan.ReliableSize)
	}
}

func TestAnalyzeVideoUsesLowerRungBound(t *testing.T) {
	a := NewAnalyzer()
	v := video.MustLoad("ToS")
	v.Segments = 5 // keep the test fast
	plans := a.AnalyzeVideo(v, 12)
	for i, p := range plans {
		lower := v.Segment(i, 11)
		want := a.Model.Score(a.Metric, lower, qoe.PerfectDelivery(lower))
		if p.LowerBound != want {
			t.Fatalf("seg %d: bound %.4f, want %.4f", i, p.LowerBound, want)
		}
		if p.MinBytes > p.Points[len(p.Points)-1].Bytes {
			t.Fatalf("seg %d: MinBytes beyond full segment", i)
		}
	}
	// Q0 has no lower rung.
	v2 := video.MustLoad("ToS")
	v2.Segments = 2
	for _, p := range a.AnalyzeVideo(v2, 0) {
		if p.LowerBound != 0 {
			t.Fatal("Q0 bound must be 0")
		}
	}
}

func TestVirtualQualityBelowFullBitrate(t *testing.T) {
	// Fig. 2c/d: the Q12/0.99 virtual level needs fewer bytes than Q12 and
	// more than Q11 for most segments.
	a := NewAnalyzer()
	v := video.MustLoad("BBB")
	cheaper := 0
	for idx := 0; idx < 30; idx++ {
		s := v.Segment(idx, 12)
		points := a.curve(s, MustOrder(s, OrderByInboundRefs))
		mb, ok := minBytesFor(points, 0.99)
		if ok && mb < s.TotalBytes() {
			cheaper++
		}
	}
	if cheaper < 15 {
		t.Fatalf("virtual level cheaper than full in only %d/30 segments", cheaper)
	}
}

func TestThinPoints(t *testing.T) {
	points := make([]QoEPoint, 100)
	for i := range points {
		points[i] = QoEPoint{Score: float64(i), Frames: i + 1, Bytes: (i + 1) * 10}
	}
	for _, c := range []struct {
		name             string
		in               []QoEPoint
		n                int
		len, first, last int // of the result; first and last index points
	}{
		{"thinned: extremes kept", points, 16, 16, 0, 99},
		{"one point is the full segment", points, 1, 1, 99, 99},
		{"two points are the extremes", points, 2, 2, 0, 99},
		{"n == len(points)", points, 100, 100, 0, 99},
		{"short curves unchanged", points[:5], 16, 5, 0, 4},
		{"0 keeps everything", points, 0, 100, 0, 99},
	} {
		got := ThinPoints(c.in, c.n)
		if len(got) != c.len {
			t.Fatalf("%s: got %d points, want %d", c.name, len(got), c.len)
		}
		if got[0] != points[c.first] || got[len(got)-1] != points[c.last] {
			t.Fatalf("%s: kept %+v … %+v, want points[%d] … points[%d]", c.name, got[0], got[len(got)-1], c.first, c.last)
		}
	}
}

func TestReliableRangesCoverHeadersAndIFrame(t *testing.T) {
	s := seg("ED", 7, 12)
	ranges := ReliableRanges(s)
	var total int
	for i, r := range ranges {
		if r[1] <= r[0] {
			t.Fatalf("empty range %v", r)
		}
		if i > 0 && r[0] < ranges[i-1][1] {
			t.Fatal("ranges overlap or unsorted")
		}
		total += r[1] - r[0]
	}
	want := reliableSize(s)
	if total != want {
		t.Fatalf("reliable ranges cover %d bytes, want %d", total, want)
	}
	// First range must start at 0 (the I-frame).
	if ranges[0][0] != 0 {
		t.Fatal("first reliable range must start at byte 0")
	}
}

func TestUnreliableRangesMatchOrder(t *testing.T) {
	s := seg("ED", 7, 12)
	order := MustOrder(s, OrderByInboundRefs)
	ranges := UnreliableRanges(s, order)
	if len(ranges) != len(order)-1 {
		t.Fatalf("%d ranges for %d frames", len(ranges), len(order)-1)
	}
	var total int
	for _, r := range ranges {
		total += r[1] - r[0]
	}
	if total+reliableSize(s) != s.TotalBytes() {
		t.Fatal("reliable + unreliable must cover the whole segment")
	}
}

// Property: for any segment/quality/ordering, MaxDropFraction is within
// [0,1] and nonincreasing in the target score.
func TestPropertyToleranceMonotoneInTarget(t *testing.T) {
	a := NewAnalyzer()
	v := video.MustLoad("ED")
	f := func(segRaw, qRaw, oRaw uint8, t1, t2 float64) bool {
		s := v.Segment(int(segRaw)%v.Segments, video.Quality(qRaw)%video.NumQualities)
		o := Orderings()[int(oRaw)%3]
		norm := func(x float64) float64 {
			if x != x || x < 0 {
				x = -x
			}
			for x > 1 {
				x /= 10
			}
			return x
		}
		t1, t2 = norm(t1), norm(t2)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		lo := a.MaxDropFraction(s, o, t2)
		hi := a.MaxDropFraction(s, o, t1)
		return lo >= 0 && hi <= 1 && hi >= lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestBetaLevelMatchesFrameWalk(t *testing.T) {
	// The offline BETA level against a brute-force walk of the frames: the
	// level drops exactly the bodies of unreferenced B-frames.
	a := NewAnalyzer()
	for _, title := range []string{"BBB", "Sintel", "P9"} {
		for _, q := range []video.Quality{0, 6, 12} {
			s := seg(title, 2, q)
			lvl := a.Beta(s)
			loss := make([]float64, len(s.Frames))
			kept, covered, prevEnd := 0, 0, 0
			if len(lvl.Ranges) != len(s.Frames) {
				t.Fatalf("%s/%v: %d ranges for %d frames", title, q, len(lvl.Ranges), len(s.Frames))
			}
			for i, r := range lvl.Ranges {
				fs, fe := s.FrameRange(i)
				want := [2]int{fs, fe}
				if s.Frames[i].Type == video.BFrame && !s.Referenced(i) {
					loss[i] = 1
					want[1] = fs + s.Frames[i].HeaderSize
				} else {
					kept++
				}
				if r != want {
					t.Fatalf("%s/%v frame %d: range %v, want %v", title, q, i, r, want)
				}
				if r[0] < prevEnd || r[1] <= r[0] {
					t.Fatalf("%s/%v frame %d: range %v not ascending/disjoint after %d", title, q, i, r, prevEnd)
				}
				prevEnd = r[1]
				covered += r[1] - r[0]
			}
			if covered != lvl.Bytes || lvl.Bytes >= s.TotalBytes() {
				t.Fatalf("%s/%v: ranges cover %d, Bytes %d, segment %d", title, q, covered, lvl.Bytes, s.TotalBytes())
			}
			if lvl.Frames != kept {
				t.Fatalf("%s/%v: Frames %d, want %d", title, q, lvl.Frames, kept)
			}
			if want := a.Model.Score(a.Metric, s, loss); lvl.Score != want {
				t.Fatalf("%s/%v: Score %v, want %v", title, q, lvl.Score, want)
			}
		}
	}
}

func TestBetaLevelPinned(t *testing.T) {
	// Literals from the run-time analysis this level replaced (PR 16's
	// BetaVirtualLevel + the player's per-request frame walk): the simulated
	// bytes of every BETA trial depend on them.
	lvl := NewAnalyzer().Beta(seg("BBB", 3, 6))
	if lvl.Bytes != 524139 || lvl.Frames != 48 || lvl.Score != 0.9456184962255906 {
		t.Fatalf("level moved: bytes %d frames %d score %v", lvl.Bytes, lvl.Frames, lvl.Score)
	}
	n := len(lvl.Ranges)
	if n != 96 || lvl.Ranges[0] != [2]int{0, 95972} || lvl.Ranges[1] != [2]int{95972, 96023} ||
		lvl.Ranges[2] != [2]int{97736, 99455} ||
		lvl.Ranges[n-2] != [2]int{593876, 595465} || lvl.Ranges[n-1] != [2]int{595465, 595516} {
		t.Fatalf("ranges moved: %d ranges, %v … %v", n, lvl.Ranges[:3], lvl.Ranges[n-2:])
	}
	h := fnv.New64a()
	fmt.Fprint(h, lvl.Ranges)
	if h.Sum64() != 0x3b2c7954c46a21d1 {
		t.Fatalf("range list hash %#x", h.Sum64())
	}
}
