package qoe

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"voxel/internal/video"
)

var m = DefaultModel

func countBelow(xs []float64, thresh float64) int {
	n := 0
	for _, x := range xs {
		if x < thresh {
			n++
		}
	}
	return n
}

func baseSSIMs(title string, q video.Quality) []float64 {
	v := video.MustLoad(title)
	out := make([]float64, v.Segments)
	for i := range out {
		out[i] = m.BaseSSIM(v.Segment(i, q))
	}
	return out
}

func TestQ12BaseSSIMExcellent(t *testing.T) {
	// At the top rung, encoding distortion must be imperceptible for most
	// segments so that frame drops are the binding constraint (Fig. 1a).
	for _, title := range video.TestTitles() {
		ss := baseSSIMs(title, 12)
		if n := countBelow(ss, 0.99); n > len(ss)/4 {
			t.Errorf("%s@Q12: %d/%d segments below SSIM 0.99, want few", title, n, len(ss))
		}
	}
}

func TestQ9BaseSSIMBelowExcellent(t *testing.T) {
	// Fig. 1d: 85% of BBB and 96% of ToS segments at Q9 score below 0.99.
	for _, title := range []string{"BBB", "ToS"} {
		ss := baseSSIMs(title, 9)
		if n := countBelow(ss, 0.99); n < len(ss)*6/10 {
			t.Errorf("%s@Q9: only %d/%d segments below 0.99, want most", title, n, len(ss))
		}
	}
}

func TestLadderMonotoneInQuality(t *testing.T) {
	v := video.MustLoad("BBB")
	for idx := 0; idx < 10; idx++ {
		prev := -1.0
		for q := video.Quality(0); q < video.NumQualities; q++ {
			s := m.BaseSSIM(v.Segment(idx, q))
			if s < prev-1e-9 {
				t.Fatalf("seg %d: SSIM decreased from %v to %v at %v", idx, prev, s, q)
			}
			prev = s
		}
	}
}

func TestQ6DistributionLowerThanQ9(t *testing.T) {
	q6 := baseSSIMs("ToS", 6)
	q9 := baseSSIMs("ToS", 9)
	var m6, m9 float64
	for i := range q6 {
		m6 += q6[i]
		m9 += q9[i]
	}
	if m6 >= m9 {
		t.Fatalf("Q6 mean %.4f should be below Q9 mean %.4f", m6/75, m9/75)
	}
}

func TestPerfectDeliveryEqualsBase(t *testing.T) {
	s := video.MustLoad("ED").Segment(3, 12)
	if got, want := m.SegmentSSIM(s, PerfectDelivery(s)), m.BaseSSIM(s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("perfect delivery SSIM %v != base %v", got, want)
	}
}

func TestDroppingUnreferencedBCheaperThanP(t *testing.T) {
	s := video.MustLoad("BBB").Segment(5, 12)
	// Find an unreferenced B and a mid-segment P with similar motion.
	unrefB, pIdx := -1, -1
	for i, f := range s.Frames {
		if f.Type == video.BFrame && !s.Referenced(i) && unrefB < 0 {
			unrefB = i
		}
		if f.Type == video.PFrame && i > 8 && i < 48 && pIdx < 0 {
			pIdx = i
		}
	}
	if unrefB < 0 || pIdx < 0 {
		t.Fatal("fixture frames not found")
	}
	sB := m.DropSet(SSIM, s, []int{unrefB})
	sP := m.DropSet(SSIM, s, []int{pIdx})
	if sB <= sP {
		t.Fatalf("dropping unref B (%.5f) should hurt less than dropping P (%.5f)", sB, sP)
	}
}

func TestEarlyPWorseThanLateP(t *testing.T) {
	// Error propagation: an early P poisons the rest of the GOP chain.
	s := video.MustLoad("Sintel").Segment(7, 12)
	early := m.DropSet(SSIM, s, []int{4})
	late := m.DropSet(SSIM, s, []int{92})
	if early >= late {
		t.Fatalf("dropping P4 (%.5f) should hurt more than P92 (%.5f)", early, late)
	}
}

func TestIFrameLossCatastrophic(t *testing.T) {
	s := video.MustLoad("BBB").Segment(2, 12)
	withI := m.DropSet(SSIM, s, []int{0})
	base := m.BaseSSIM(s)
	if base-withI < 0.05 {
		t.Fatalf("losing the I-frame should be catastrophic: %.4f → %.4f", base, withI)
	}
}

func TestMoreLossLowerScore(t *testing.T) {
	s := video.MustLoad("ToS").Segment(11, 12)
	prev := m.BaseSSIM(s)
	drop := []int{}
	// Drop B frames one at a time; score must be nonincreasing.
	for i := 1; i < 96; i++ {
		if s.Frames[i].Type != video.BFrame {
			continue
		}
		drop = append(drop, i)
		got := m.DropSet(SSIM, s, drop)
		if got > prev+1e-12 {
			t.Fatalf("score increased after dropping frame %d: %.6f → %.6f", i, prev, got)
		}
		prev = got
	}
}

func TestPartialLossScales(t *testing.T) {
	s := video.MustLoad("ED").Segment(9, 12)
	loss := make([]float64, 96)
	loss[50] = 0.3
	partial := m.SegmentSSIM(s, loss)
	loss[50] = 1.0
	full := m.SegmentSSIM(s, loss)
	base := m.BaseSSIM(s)
	if !(full < partial && partial < base) {
		t.Fatalf("want full %.5f < partial %.5f < base %.5f", full, partial, base)
	}
}

func TestP9TolerantP10Fragile(t *testing.T) {
	// Appendix C: P9 (static unboxing) tolerates massive drops; P10
	// (continuous dance) tolerates almost none.
	dropAllB := func(title string) float64 {
		s := video.MustLoad(title).Segment(10, 12)
		var drop []int
		for i, f := range s.Frames {
			if f.Type == video.BFrame {
				drop = append(drop, i)
			}
		}
		return m.BaseSSIM(s) - m.DropSet(SSIM, s, drop)
	}
	d9, d10 := dropAllB("P9"), dropAllB("P10")
	if d9 >= d10 {
		t.Fatalf("P9 drop impact %.5f should be far below P10 %.5f", d9, d10)
	}
	if d9 > 0.004 {
		t.Errorf("P9 should barely notice losing all B frames, impact %.5f", d9)
	}
	if d10 < 0.01 {
		t.Errorf("P10 should hurt badly when losing all B frames, impact %.5f", d10)
	}
}

func TestVMAFAndPSNRMonotoneWithSSIM(t *testing.T) {
	s := video.MustLoad("BBB").Segment(4, 12)
	var drop []int
	type scores struct{ ssim, vmaf, psnr float64 }
	var prev *scores
	for i := 1; i < 96; i += 5 {
		drop = append(drop, i)
		cur := scores{
			m.DropSet(SSIM, s, drop),
			m.DropSet(VMAF, s, drop),
			m.DropSet(PSNR, s, drop),
		}
		if prev != nil {
			if (cur.ssim-prev.ssim)*(cur.vmaf-prev.vmaf) < 0 {
				t.Fatalf("VMAF not monotone with SSIM")
			}
			if (cur.ssim-prev.ssim)*(cur.psnr-prev.psnr) < 0 {
				t.Fatalf("PSNR not monotone with SSIM")
			}
		}
		prev = &cur
	}
}

func TestMetricScales(t *testing.T) {
	s := video.MustLoad("ToS").Segment(0, 12)
	none := PerfectDelivery(s)
	if v := m.Score(VMAF, s, none); v < 60 || v > 100 {
		t.Fatalf("VMAF at Q12 = %.1f, want high", v)
	}
	if p := m.Score(PSNR, s, none); p < 30 || p > psnrCap {
		t.Fatalf("PSNR at Q12 = %.1f dB, want 30–50", p)
	}
	low := video.MustLoad("ToS").Segment(0, 0)
	if hi, lo := m.Score(VMAF, s, none), m.Score(VMAF, low, PerfectDelivery(low)); hi <= lo {
		t.Fatalf("VMAF should punish Q0: %v vs %v", hi, lo)
	}
	if SSIM.Perfect() != 1 || VMAF.Perfect() != 100 || PSNR.Perfect() != psnrCap {
		t.Fatal("Perfect() values wrong")
	}
	if SSIM.String() != "SSIM" || VMAF.String() != "VMAF" || PSNR.String() != "PSNR" {
		t.Fatal("metric names wrong")
	}
}

// Property: score in valid range, and any loss vector scores ≤ base.
func TestPropertyScoreBounds(t *testing.T) {
	v := video.MustLoad("Sintel")
	f := func(segRaw, qRaw uint8, lossBits uint64, frac float64) bool {
		s := v.Segment(int(segRaw)%v.Segments, video.Quality(qRaw)%video.NumQualities)
		loss := make([]float64, 96)
		for i := 0; i < 64; i++ {
			if lossBits&(1<<uint(i)) != 0 {
				loss[i] = 1
			}
		}
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			frac = 0.5
		}
		loss[70] = math.Abs(math.Mod(frac, 1))
		got := m.SegmentSSIM(s, loss)
		return got >= 0 && got <= 1 && got <= m.BaseSSIM(s)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameErrorsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched loss vector")
		}
	}()
	s := video.MustLoad("BBB").Segment(0, 12)
	m.FrameErrors(s, make([]float64, 3))
}

// TestWarmScoringZeroAllocs: Score, SegmentSSIM and DropSet run inside every
// trial and draw their per-frame scratch from errsPool, which they return it
// to, so a warm call allocates nothing. The median over many calls is
// bounded, not every call: under the race detector sync.Pool drops one Put
// in four, and a call whose predecessor's Put was dropped pays for new
// scratch (7 DropSet calls in 16, which holds two). A leaked Put, or an
// allocation added to the call, costs every call.
func TestWarmScoringZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a Put lands where the next Get looks
	s := video.MustLoad("BBB").Segment(0, 12)
	loss := make([]float64, len(s.Frames))
	loss[10], loss[50] = 1, 0.5
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Score", func() { m.Score(VMAF, s, loss) }},
		{"SegmentSSIM", func() { m.SegmentSSIM(s, loss) }},
		{"DropSet", func() { m.DropSet(SSIM, s, []int{3, 10, 41}) }},
	} {
		if n := medianMallocs(2001, c.call); n != 0 {
			t.Errorf("a warm %s makes %d allocations (median of 2001 calls), want 0", c.name, n)
		}
	}
}

// medianMallocs runs f once to warm it, then n more times, and returns the
// median number of heap allocations a call made.
func medianMallocs(n int, f func()) uint64 {
	f()
	per := make([]uint64, n)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		per[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(per)
	return per[n/2]
}
