package figures

import (
	"fmt"

	"voxel/internal/exp"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// Table1 regenerates Tab. 1: the four evaluation titles with their
// measured per-segment bitrate standard deviations at Q12.
func Table1(p Params) *Table {
	t := &Table{ID: "Tab1", Title: "Evaluation videos",
		Header: []string{"Video", "Genre", "StdDev(target)", "StdDev(measured)", "Segments"}}
	for _, name := range video.TestTitles() {
		v := video.MustLoad(name)
		sd := stats.StdDev(v.SegmentBitrates(12))
		t.AddRow(label(name), label(v.Genre), mbps(v.StdDevMbps*1e6), mbps(sd), num(v.Segments))
	}
	return t
}

// Table2 regenerates Tab. 2: the 13-rung ladder with measured total sizes
// for BBB.
func Table2(Params) *Table {
	t := &Table{ID: "Tab2", Title: "Quality levels",
		Header: []string{"Quality", "Resolution", "AvgBitrate", "TotalSize(BBB)"}}
	v := video.MustLoad("BBB")
	for q := video.Quality(0); q < video.NumQualities; q++ {
		var total int
		for i := 0; i < v.Segments; i++ {
			total += v.Segment(i, q).TotalBytes()
		}
		t.AddRow(label(q.String()), label(video.Ladder[q].Resolution),
			mbps(video.Ladder[q].AvgBitrate), mbytes(total))
	}
	return t
}

// Table3 regenerates Tab. 3: the ten YouTube clips.
func Table3(Params) *Table {
	t := &Table{ID: "Tab3", Title: "Public YouTube videos",
		Header: []string{"Clip", "Category", "StdDev(target)", "StdDev(measured)"}}
	for _, name := range video.YouTubeTitles() {
		v := video.MustLoad(name)
		sd := stats.StdDev(v.SegmentBitrates(12))
		t.AddRow(label(name), label(v.Genre), mbps(v.StdDevMbps*1e6), mbps(sd))
	}
	return t
}

// Prep reports VOXEL's offline preparation (§4.1) for each evaluation
// title: how often each frame ordering is the cheapest at Q12, the Q12/SSIM
// 0.99 drop tolerance, and the size of the enriched manifest the trials
// stream, against an average Q12 segment.
func Prep(p Params) *Table {
	t := &Table{ID: "Prep", Title: "Offline preparation at Q12 (full clip, SSIM)"}
	t.Header = []string{"Video"}
	for _, o := range prep.Orderings() {
		t.Header = append(t.Header, o.String())
	}
	t.Header = append(t.Header, "tol p25", "tol median", "tol p75", "Manifest", "Overhead")
	a := prep.NewAnalyzer()
	for _, title := range p.videos() {
		counts := map[prep.Ordering]int{}
		for _, plan := range a.AnalyzeVideo(video.MustLoad(title), 12) {
			counts[plan.Ordering]++
		}
		row := []Cell{label(title)}
		for _, o := range prep.Orderings() {
			row = append(row, num(counts[o]))
		}
		p25, p50, p75 := toleranceQuartiles(title, 12, 0.99)
		bytes, frac, err := exp.ManifestFor(title, qoe.SSIM, 0).SizeOverhead()
		if err != nil {
			panic(err) // EncodeMPD of a built manifest cannot fail
		}
		t.AddRow(append(row, pct(p25), pct(p50), pct(p75), nbytes(bytes), pct(frac))...)
		if t.Notes == "" {
			t.Notes = fmt.Sprintf("paper (§4.1): the enriched manifest is ≈16%% of an average Q12 segment; measured %s (%s) as MPD XML, most of it per-frame reliable/unreliable byte ranges",
				pct(frac), title)
		}
	}
	return t
}

// Traces summarises the canonical bandwidth traces and the Riiser 3G set
// at the size Fig. 10 streams over (the set row averages its traces).
func Traces(p Params) *Table {
	t := &Table{ID: "Traces", Title: "Bandwidth traces",
		Header: []string{"Trace", "Mean", "StdDev", "Length"}}
	for _, name := range trace.Names() {
		tr, err := trace.ByName(name)
		if err != nil {
			panic(err) // Names lists exactly the ByName keys
		}
		t.AddRow(label(tr.Name()), mbps(tr.Mean()), mbps(tr.StdDev()), secs(tr.Duration().Seconds()))
	}
	set := trace.Riiser3GSet(p.riiserSetSize())
	var means, sds, lengths []float64
	for _, tr := range set {
		means = append(means, tr.Mean())
		sds = append(sds, tr.StdDev())
		lengths = append(lengths, tr.Duration().Seconds())
	}
	t.AddRow(label(fmt.Sprintf("riiser-3g ×%d (avg)", len(set))), mbps(stats.Mean(means)), mbps(stats.Mean(sds)),
		secs(stats.Mean(lengths)))
	t.Notes = fmt.Sprintf("paper §5: LTE/3G/FCC traces offset to a 10 Mbps mean, stddev ≈9–10 (T-Mobile, Verizon), 2.88 (AT&T), 1.1 (3G), 2.35 Mbps (FCC); riiser-3g means span %s–%s",
		mbps(stats.Min(means)), mbps(stats.Max(means)))
	return t
}

// toleranceQuartiles computes drop-tolerance quartiles for a title.
func toleranceQuartiles(title string, q video.Quality, target float64) (p25, p50, p75 float64) {
	a := prep.NewAnalyzer()
	v := video.MustLoad(title)
	var fr []float64
	for i := 0; i < v.Segments; i++ {
		fr = append(fr, a.MaxDropFraction(v.Segment(i, q), prep.OrderByInboundRefs, target))
	}
	return stats.Percentile(fr, 25), stats.Percentile(fr, 50), stats.Percentile(fr, 75)
}

// Fig1 regenerates Fig. 1a–c: drop-tolerance CDF quartiles for the six
// §3 titles under (Q12, 0.99), (Q9, 0.99) and (Q9, 0.95).
func Fig1(p Params) *Table {
	t := &Table{ID: "Fig1", Title: "Tolerable frame drops (quartiles of CDF)",
		Header: []string{"Video", "Setting", "p25", "median", "p75"},
		Notes:  "paper: at Q12/0.99 ≥half the segments sustain 10–20% drops; tolerance collapses at Q9/0.99 and recovers at Q9/0.95"}
	titles := []string{"BBB", "ED", "Sintel", "ToS", "P2", "P4"}
	if p.Quick {
		titles = []string{"BBB", "ToS"}
	}
	settings := []struct {
		label  string
		q      video.Quality
		target float64
	}{
		{"Q12/SSIM0.99", 12, 0.99},
		{"Q9/SSIM0.99", 9, 0.99},
		{"Q9/SSIM0.95", 9, 0.95},
	}
	for _, s := range settings {
		for _, title := range titles {
			p25, p50, p75 := toleranceQuartiles(title, s.q, s.target)
			t.AddRow(label(title), label(s.label), pct(p25), pct(p50), pct(p75))
		}
	}
	return t
}

// Fig1d regenerates Fig. 1d: base-SSIM distributions of low rungs.
func Fig1d(Params) *Table {
	t := &Table{ID: "Fig1d", Title: "Pristine SSIM at low rungs",
		Header: []string{"Video", "Quality", "median SSIM", "frac<0.99"},
		Notes:  "paper: 85% of BBB and 96% of ToS segments at Q9 score below 0.99"}
	m := qoe.DefaultModel
	for _, title := range []string{"ToS", "BBB"} {
		v := video.MustLoad(title)
		for _, q := range []video.Quality{6, 9} {
			var ss []float64
			for i := 0; i < v.Segments; i++ {
				ss = append(ss, m.BaseSSIM(v.Segment(i, q)))
			}
			below := 0
			for _, s := range ss {
				if s < 0.99 {
					below++
				}
			}
			t.AddRow(label(title), label(q.String()), f4(stats.Percentile(ss, 50)),
				pct(float64(below)/float64(len(ss))))
		}
	}
	return t
}

// Fig2a regenerates Fig. 2a: how often a frame at each position belongs to
// the maximal drop set at SSIM 0.99, bucketed by position.
func Fig2a(Params) *Table {
	t := &Table{ID: "Fig2a", Title: "Droppable frames by position (Q12, SSIM 0.99)",
		Header: []string{"Video", "pos 0-15", "16-31", "32-47", "48-63", "64-79", "80-95"},
		Notes:  "paper: droppable frames are distributed throughout the segment, not clustered at the tail"}
	a := prep.NewAnalyzer()
	for _, title := range []string{"BBB", "ToS"} {
		v := video.MustLoad(title)
		counts := make([]float64, video.FramesPerSeg)
		for i := 0; i < v.Segments; i++ {
			for _, f := range a.DropSet(v.Segment(i, 12), prep.OrderByInboundRefs, 0.99) {
				counts[f]++
			}
		}
		row := []Cell{label(title)}
		for b := 0; b < 6; b++ {
			var sum float64
			for pos := b * 16; pos < (b+1)*16; pos++ {
				sum += counts[pos]
			}
			row = append(row, pct(sum/(16*float64(v.Segments))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig2b regenerates Fig. 2b: the ranked ordering vs restricting drops to
// the decode-order tail.
func Fig2b(Params) *Table {
	t := &Table{ID: "Fig2b", Title: "Ranked vs tail-only drop tolerance (Q12, SSIM 0.99)",
		Header: []string{"Video", "ranked median", "tail median", "ranked ref-share", "tail ref-share"},
		Notes:  "paper: tail-only drops tolerate far fewer frames while hitting more referenced frames (51.75% BBB / 46% ToS)"}
	a := prep.NewAnalyzer()
	for _, title := range []string{"BBB", "ToS"} {
		v := video.MustLoad(title)
		var ranked, tail, refR, refT []float64
		for i := 0; i < v.Segments; i++ {
			s := v.Segment(i, 12)
			ranked = append(ranked, a.MaxDropFraction(s, prep.OrderByInboundRefs, 0.99))
			tail = append(tail, a.MaxDropFraction(s, prep.OrderOriginal, 0.99))
			if d := a.DropSet(s, prep.OrderByInboundRefs, 0.99); len(d) > 0 {
				refR = append(refR, prep.ReferencedShare(s, d))
			}
			if d := a.DropSet(s, prep.OrderOriginal, 0.99); len(d) > 0 {
				refT = append(refT, prep.ReferencedShare(s, d))
			}
		}
		t.AddRow(label(title),
			pct(stats.Percentile(ranked, 50)), pct(stats.Percentile(tail, 50)),
			pct(stats.Mean(refR)), pct(stats.Mean(refT)))
	}
	return t
}

// Fig2cd regenerates Fig. 2c,d: bitrate distributions of the Q12/0.99 and
// Q12/0.95 virtual levels against the neighbouring real rungs.
func Fig2cd(Params) *Table {
	t := &Table{ID: "Fig2cd", Title: "Virtual quality level bitrates",
		Header: []string{"Video", "series", "mean", "median"},
		Notes:  "paper: Q12/0.99 sits between Q11 and Q12 — a finer rung from frame drops alone"}
	a := prep.NewAnalyzer()
	for _, title := range []string{"BBB", "ToS"} {
		v := video.MustLoad(title)
		series := map[string][]float64{}
		for i := 0; i < v.Segments; i++ {
			s12 := v.Segment(i, 12)
			order := prep.MustOrder(s12, prep.OrderByInboundRefs)
			for _, target := range []float64{0.99, 0.95} {
				points := a.CurveFor(s12, order)
				bytes := points[len(points)-1].Bytes
				for _, pt := range points {
					if pt.Score >= target {
						bytes = pt.Bytes
						break
					}
				}
				key := fmt.Sprintf("Q12/%.2f", target)
				series[key] = append(series[key], float64(bytes*8)/video.SegmentDuration.Seconds())
			}
			series["Q12"] = append(series["Q12"], s12.Bitrate())
			series["Q11"] = append(series["Q11"], v.Segment(i, 11).Bitrate())
			series["Q10"] = append(series["Q10"], v.Segment(i, 10).Bitrate())
		}
		for _, key := range []string{"Q12", "Q12/0.99", "Q12/0.95", "Q11", "Q10"} {
			xs := series[key]
			t.AddRow(label(title), label(key), mbps(stats.Mean(xs)), mbps(stats.Percentile(xs, 50)))
		}
	}
	return t
}

// Fig15 regenerates Fig. 15: per-segment bitrate variation across rungs.
func Fig15(Params) *Table {
	t := &Table{ID: "Fig15", Title: "Segment bitrate variation",
		Header: []string{"Video", "Quality", "min", "mean", "max"},
		Notes:  "capped VBR: peaks at most 2× the rung average"}
	for _, title := range []string{"ED", "Sintel"} {
		v := video.MustLoad(title)
		for _, q := range []video.Quality{12, 11, 10, 8, 6, 4} {
			rates := v.SegmentBitrates(q)
			t.AddRow(label(title), label(q.String()), mbps(stats.Min(rates)), mbps(stats.Mean(rates)), mbps(stats.Max(rates)))
		}
	}
	return t
}

// Fig19 regenerates Fig. 19: drop tolerance across the YouTube set.
func Fig19(p Params) *Table {
	t := &Table{ID: "Fig19", Title: "YouTube-set drop tolerance (medians)",
		Header: []string{"Clip", "Q12/0.99", "Q9/0.99", "Q9/0.95"},
		Notes:  "paper: P9 (static) tolerates huge drops, P10 (dance) almost none"}
	clips := video.YouTubeTitles()
	if p.Quick {
		clips = []string{"P1", "P9", "P10"}
	}
	for _, title := range clips {
		_, a, _ := toleranceQuartiles(title, 12, 0.99)
		_, b, _ := toleranceQuartiles(title, 9, 0.99)
		_, c, _ := toleranceQuartiles(title, 9, 0.95)
		t.AddRow(label(title), pct(a), pct(b), pct(c))
	}
	return t
}

// ReferencedShares regenerates the §3 statistic: the share of referenced
// frames inside the maximal drop sets.
func ReferencedShares(Params) *Table {
	t := &Table{ID: "RefShares", Title: "Referenced frames among droppable frames (Q12, SSIM 0.99)",
		Header: []string{"Video", "mean ref share", "drops incl. referenced"},
		Notes:  "paper: 12.6% (ToS) to 30% (Sintel) of dropped frames are referenced"}
	a := prep.NewAnalyzer()
	for _, title := range video.TestTitles() {
		v := video.MustLoad(title)
		var shares []float64
		withRef := 0
		n := 0
		for i := 0; i < v.Segments; i++ {
			s := v.Segment(i, 12)
			d := a.DropSet(s, prep.OrderByInboundRefs, 0.99)
			if len(d) == 0 {
				continue
			}
			n++
			share := prep.ReferencedShare(s, d)
			shares = append(shares, share)
			if share > 0 {
				withRef++
			}
		}
		frac := 0.0
		if n > 0 {
			frac = float64(withRef) / float64(n)
		}
		t.AddRow(label(title), pct(stats.Mean(shares)), pct(frac))
	}
	return t
}
