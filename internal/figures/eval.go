package figures

import (
	"fmt"
	"time"

	"voxel/internal/exp"
	"voxel/internal/netem"
	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/survey"
	"voxel/internal/trace"
)

// vanillaPairs are the Fig. 3/4 subplot assignments: (abr, trace, video).
func vanillaPairs(p Params) []struct {
	abrQ, abrQStar exp.System
	tr             *trace.Trace
	video          string
} {
	all := []struct {
		abrQ, abrQStar exp.System
		tr             *trace.Trace
		video          string
	}{
		{exp.SysMPCQ, exp.SysMPCQStar, trace.TMobile(), "BBB"},
		{exp.SysMPCQ, exp.SysMPCQStar, trace.Verizon(), "ED"},
		{exp.SysBolaQ, exp.SysBolaQStar, trace.TMobile(), "Sintel"},
		{exp.SysBolaQ, exp.SysBolaQStar, trace.Verizon(), "ToS"},
	}
	if p.Quick {
		return all[:2]
	}
	return all
}

// Fig3 regenerates Fig. 3: bufRatio of unmodified MPC/BOLA over QUIC vs
// QUIC*, buffers 5–7 segments.
func Fig3(p Params) *Table {
	p = p.Defaults()
	// Large (5–7 segment) buffers need a clip long enough to reach steady
	// state, or stalls cannot appear at all.
	if p.Segments < 20 {
		p.Segments = 20
	}
	t := &Table{ID: "Fig3", Title: "Vanilla ABR: p90 bufRatio, Q vs Q*",
		Header: []string{"ABR", "Trace", "Video", "Buf", "Q", "Q*", "improvement"},
		Notes:  "paper: Q* lowers bufRatio for all ABRs; MPC improves most (avg 71.7% vs BOLA 9.2%)"}
	for _, cell := range vanillaPairs(p) {
		for _, buf := range p.buffers([]int{5, 6, 7}) {
			q := exp.Run(p.cell(cell.video, cell.abrQ, cell.tr, buf))
			qs := exp.Run(p.cell(cell.video, cell.abrQStar, cell.tr, buf))
			var imp Cell
			if q.BufRatioP90() > 0 {
				imp = pct((q.BufRatioP90() - qs.BufRatioP90()) / q.BufRatioP90())
			}
			t.AddRow(label(string(cell.abrQ)), label(cell.tr.Name()), label(cell.video), num(buf),
				pct(q.BufRatioP90()), pct(qs.BufRatioP90()), imp)
		}
	}
	return t
}

// Fig4 regenerates Fig. 4: the bitrates of the same cells.
func Fig4(p Params) *Table {
	p = p.Defaults()
	if p.Segments < 20 {
		p.Segments = 20
	}
	t := &Table{ID: "Fig4", Title: "Vanilla ABR: mean bitrate, Q vs Q*",
		Header: []string{"ABR", "Trace", "Video", "Buf", "Q", "Q*"},
		Notes:  "paper: ABRs trade bitrate for the lower bufRatio (MPC −24.7%, BOLA −4.1%)"}
	for _, cell := range vanillaPairs(p) {
		for _, buf := range p.buffers([]int{5, 6, 7}) {
			q := exp.Run(p.cell(cell.video, cell.abrQ, cell.tr, buf))
			qs := exp.Run(p.cell(cell.video, cell.abrQStar, cell.tr, buf))
			t.AddRow(label(string(cell.abrQ)), label(cell.tr.Name()), label(cell.video), num(buf),
				mbps(q.BitrateMean()), mbps(qs.BitrateMean()))
		}
	}
	return t
}

// crossCfg builds a cross-traffic cell (20 Mbps link).
func (p Params) crossCfg(title string, sys exp.System, load float64, buf int) exp.Config {
	c := p.cell(title, sys, nil, buf)
	c.Trace = nil
	c.CrossTraffic = load
	c.LinkCapacity = 20e6
	return c
}

// Fig5 regenerates Fig. 5: vanilla ABR under Harpoon-like cross traffic.
func Fig5(p Params) *Table {
	p = p.Defaults()
	if p.Segments < 20 {
		p.Segments = 20
	}
	t := &Table{ID: "Fig5", Title: "Vanilla ABR with 15 Mbps cross traffic (20 Mbps link)",
		Header: []string{"ABR", "Video", "Buf", "Q p90bufRatio", "Q* p90bufRatio", "Q bitrate", "Q* bitrate"},
		Notes:  "paper: Q* lowers bufRatio substantially for a small bitrate cost"}
	cells := []struct {
		q, qs exp.System
		video string
	}{
		{exp.SysBolaQ, exp.SysBolaQStar, "BBB"},
		{exp.SysMPCQ, exp.SysMPCQStar, "ED"},
	}
	if p.Quick {
		cells = cells[:1]
	}
	for _, cell := range cells {
		for _, buf := range p.buffers([]int{5, 6, 7}) {
			q := exp.Run(p.crossCfg(cell.video, cell.q, 15e6, buf))
			qs := exp.Run(p.crossCfg(cell.video, cell.qs, 15e6, buf))
			t.AddRow(label(string(cell.q)), label(cell.video), num(buf),
				pct(q.BufRatioP90()), pct(qs.BufRatioP90()),
				mbps(q.BitrateMean()), mbps(qs.BitrateMean()))
		}
	}
	return t
}

// fig6Cells are the Fig. 6 subplot assignments.
func fig6Cells(p Params) []struct {
	tr    *trace.Trace
	video string
} {
	all := []struct {
		tr    *trace.Trace
		video string
	}{
		{trace.ATT(), "BBB"},
		{trace.Norway3G(), "ED"},
		{trace.Verizon(), "Sintel"},
		{trace.TMobile(), "ToS"},
	}
	if p.Quick {
		return []struct {
			tr    *trace.Trace
			video string
		}{{trace.Verizon(), "BBB"}, {trace.TMobile(), "ToS"}}
	}
	return all
}

// Fig6 regenerates Fig. 6: BOLA vs BETA vs VOXEL bufRatio across networks
// and buffer sizes 1–7.
func Fig6(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig6", Title: "p90 bufRatio: BOLA vs BETA vs VOXEL",
		Header: []string{"Trace", "Video", "Buf", "BOLA", "BETA", "VOXEL"},
		Notes:  "paper: VOXEL suffers 25–97% less rebuffering, down to 1-segment buffers"}
	for _, cell := range fig6Cells(p) {
		for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
			bola := exp.Run(p.cell(cell.video, exp.SysBolaQ, cell.tr, buf))
			beta := exp.Run(p.cell(cell.video, exp.SysBeta, cell.tr, buf))
			vox := exp.Run(p.cell(cell.video, exp.SysVoxel, cell.tr, buf))
			t.AddRow(label(cell.tr.Name()), label(cell.video), num(buf),
				pct(bola.BufRatioP90()), pct(beta.BufRatioP90()), pct(vox.BufRatioP90()))
		}
	}
	return t
}

// Fig7a regenerates Fig. 7a: VOXEL's bufRatio under SSIM, VMAF, and PSNR
// utilities vs BOLA (QoE-metric agnosticism).
func Fig7a(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig7a", Title: "bufRatio by QoE metric (BBB over Verizon)",
		Header: []string{"Buf", "BOLA", "VOXEL/SSIM", "VOXEL/VMAF", "VOXEL/PSNR"},
		Notes:  "paper: VOXEL beats BOLA regardless of metric"}
	tr := trace.Verizon()
	for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
		bola := exp.Run(p.cell("BBB", exp.SysBolaQ, tr, buf))
		row := []Cell{num(buf), pct(bola.BufRatioP90())}
		for _, m := range []qoe.Metric{qoe.SSIM, qoe.VMAF, qoe.PSNR} {
			c := p.cell("BBB", exp.SysVoxel, tr, buf)
			c.Metric = m
			row = append(row, pct(exp.Run(c).BufRatioP90()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7bc regenerates Fig. 7b,c: SSIM and VMAF distributions for BOLA vs
// VOXEL on BBB/Verizon.
func Fig7bc(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig7bc", Title: "Segment-score distributions (BBB over Verizon, 3-seg buffer)",
		Header: []string{"Metric", "System", "p10", "median", "p90", "perfect"},
		Notes:  "paper: medians comparable — the rebuffering win costs no SSIM; VOXEL earns perfect scores"}
	tr := trace.Verizon()
	for _, m := range []qoe.Metric{qoe.SSIM, qoe.VMAF} {
		for _, sys := range []exp.System{exp.SysBolaQ, exp.SysVoxel} {
			c := p.cell("BBB", sys, tr, 3)
			c.Metric = m
			agg := exp.Run(c)
			cdf := agg.ScoreCDF()
			perfect := 0
			for _, s := range agg.AllScores {
				if s >= 0.9999*m.Perfect() {
					perfect++
				}
			}
			t.AddRow(label(m.String()), label(string(sys)),
				f3(cdf.Quantile(0.10)), f3(cdf.Quantile(0.50)), f3(cdf.Quantile(0.90)),
				pct(float64(perfect)/float64(max(1, len(agg.AllScores)))))
		}
	}
	return t
}

// Fig7d regenerates Fig. 7d: the share of data skipped as a function of
// buffer size.
func Fig7d(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig7d", Title: "Data skipped by VOXEL (Verizon)",
		Header: []string{"Video", "Buf", "skipped"},
		Notes:  "paper: skipping shrinks as the buffer grows (large buffers absorb variation)"}
	tr := trace.Verizon()
	for _, v := range p.videos() {
		for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
			agg := exp.Run(p.cell(v, exp.SysVoxel, tr, buf))
			var sk []float64
			for _, trial := range agg.Trials {
				sk = append(sk, trial.Skipped)
			}
			t.AddRow(label(v), num(buf), pct(stats.Mean(sk)))
		}
	}
	return t
}

// Fig8 regenerates Fig. 8: VOXEL vs BOLA mean bitrates.
func Fig8(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig8", Title: "Mean bitrates: BOLA vs VOXEL",
		Header: []string{"Trace", "Video", "Buf", "BOLA", "VOXEL"},
		Notes:  "paper: VOXEL's bitrates are on par or higher while rebuffering less"}
	traces := []*trace.Trace{trace.TMobile(), trace.Verizon()}
	for _, tr := range traces {
		for _, v := range p.videos() {
			for _, buf := range p.buffers([]int{1, 7}) {
				bola := exp.Run(p.cell(v, exp.SysBolaQ, tr, buf))
				vox := exp.Run(p.cell(v, exp.SysVoxel, tr, buf))
				t.AddRow(label(tr.Name()), label(v), num(buf),
					mbps(bola.BitrateMean()), mbps(vox.BitrateMean()))
			}
		}
	}
	return t
}

// Fig9 regenerates Fig. 9: SSIM CDF comparisons in four scenarios.
func Fig9(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig9", Title: "SSIM distributions across scenarios",
		Header: []string{"Scenario", "System", "p25", "median", "p75"},
		Notes:  "paper: VOXEL's SSIMs are superior or trade slightly for far lower bufRatio"}
	scenarios := []struct {
		label string
		video string
		tr    *trace.Trace
		buf   int
	}{
		{"ToS/AT&T/2seg", "ToS", trace.ATT(), 2},
		{"Sintel/3G", "Sintel", trace.Norway3G(), 3},
		{"ED/Verizon", "ED", trace.Verizon(), 3},
		{"BBB/T-Mobile", "BBB", trace.TMobile(), 3},
	}
	if p.Quick {
		scenarios = scenarios[:2]
	}
	for _, sc := range scenarios {
		for _, sys := range []exp.System{exp.SysBolaQ, exp.SysBeta, exp.SysVoxel} {
			cdf := exp.Run(p.cell(sc.video, sys, sc.tr, sc.buf)).ScoreCDF()
			t.AddRow(label(sc.label), label(string(sys)),
				f3(cdf.Quantile(0.25)), f3(cdf.Quantile(0.50)), f3(cdf.Quantile(0.75)))
		}
	}
	return t
}

// Fig10 regenerates Fig. 10: the BOLA → BOLA-SSIM → VOXEL ablation over
// the Riiser 3G commute traces.
func Fig10(p Params) *Table {
	p = p.Defaults()
	n := p.riiserSetSize()
	t := &Table{ID: "Fig10", Title: fmt.Sprintf("Ablation over %d 3G commute traces (BBB)", n),
		Header: []string{"Buf", "System", "mean bufRatio", "p90 bufRatio", "mean SSIM"},
		Notes:  "paper (1-seg): BOLA 7.9%, BOLA-SSIM 8.2%, VOXEL 5.1% mean bufRatio; BOLA-SSIM gains +0.02 SSIM, VOXEL keeps it while stalling least"}
	traces := trace.Riiser3GSet(n)
	for _, buf := range p.buffers([]int{1, 7}) {
		for _, sys := range []exp.System{exp.SysBolaQ, exp.SysBolaSSIM, exp.SysVoxel} {
			var ratios, scores []float64
			for _, tr := range traces {
				c := p.cell("BBB", sys, tr, buf)
				c.Trials = 1 // one run per trace, as in the paper
				agg := exp.Run(c)
				ratios = append(ratios, agg.BufRatios...)
				scores = append(scores, agg.AllScores...)
			}
			t.AddRow(num(buf), label(string(sys)),
				pct(stats.Mean(ratios)), pct(stats.Percentile(ratios, 90)), f4(stats.Mean(scores)))
		}
	}
	return t
}

// Fig11 regenerates Fig. 11a–c: constant and step traces with a 28 s
// buffer.
func Fig11(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig11", Title: "Synthetic traces (28 s buffer, BBB)",
		Header: []string{"Trace", "System", "mean SSIM", "min SSIM", "perfect segs"},
		Notes:  "paper: VOXEL's finer levels fit the rate, yielding many perfect (1.0) segments; BOLA gets none"}
	secs := p.Segments*4*3 + 600
	traces := []*trace.Trace{
		trace.Constant("const-10.5", 10.5e6, secs),
		trace.Step("step-10.75-10.5", 10.75e6, 10.5e6, 70*time.Second, secs),
	}
	// The paper's SSIM reference is the top rung itself (§2, "Reference
	// quality level"), so a "perfect 1.0" segment is one delivered in full
	// at Q12. Score against the per-segment pristine-Q12 score: the full
	// point of the prepared title's curve.
	man := exp.ManifestFor("BBB", qoe.SSIM, p.Segments)
	pristine := make([]float64, man.NumSegments())
	for i := range pristine {
		pts := man.Segment(12, i).Points
		pristine[i] = pts[len(pts)-1].Score
	}
	for _, tr := range traces {
		for _, sys := range []exp.System{exp.SysBolaQ, exp.SysVoxel} {
			agg := exp.Run(p.cell("BBB", sys, tr, 7))
			// "Perfect" at FFmpeg's reported precision: within rounding of
			// the pristine-Q12 score (tiny repaired losses included).
			perfect := 0
			for i, s := range agg.AllScores {
				if s >= pristine[i%len(pristine)]-5e-4 {
					perfect++
				}
			}
			t.AddRow(label(tr.Name()), label(string(sys)),
				f4(stats.Mean(agg.AllScores)), f4(stats.Min(agg.AllScores)),
				pct(float64(perfect)/float64(max(1, len(agg.AllScores)))))
		}
	}
	return t
}

// Fig11d regenerates Fig. 11d and Fig. 13: the in-the-wild trials.
func Fig11d(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig11d", Title: "In-the-wild (WiFi-like path)",
		Header: []string{"Video", "Buf", "System", "p90 bufRatio", "median SSIM"},
		Notes:  "paper: comparable at 7-seg buffers; VOXEL wins clearly at 1-seg"}
	tr := trace.InTheWild()
	videos := []string{"BBB", "ToS"}
	for _, v := range videos {
		for _, buf := range []int{1, 7} {
			for _, sys := range []exp.System{exp.SysBolaQ, exp.SysVoxel} {
				agg := exp.Run(p.cell(v, sys, tr, buf))
				t.AddRow(label(v), num(buf), label(string(sys)),
					pct(agg.BufRatioP90()), f3(agg.ScoreCDF().Quantile(0.5)))
			}
		}
	}
	return t
}

// Fig12 regenerates Fig. 12: VOXEL vs BOLA under 20 Mbps cross traffic.
func Fig12(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig12", Title: "VOXEL with 15 Mbps cross traffic (20 Mbps link)",
		Header: []string{"Video", "Buf", "System", "p90 bufRatio", "bitrate"},
		Notes:  "paper: VOXEL nearly eliminates rebuffering without giving up bitrate"}
	videos := p.videos()[:2]
	for _, v := range videos {
		for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
			for _, sys := range []exp.System{exp.SysBolaQ, exp.SysVoxel} {
				agg := exp.Run(p.crossCfg(v, sys, 15e6, buf))
				t.AddRow(label(v), num(buf), label(string(sys)),
					pct(agg.BufRatioP90()), mbps(agg.BitrateMean()))
			}
		}
	}
	return t
}

// Fig14 regenerates Fig. 14 and the §5.3 survey outcomes by running the
// two systems under challenging 3G conditions and feeding the measured
// clip statistics to the user-model panel.
func Fig14(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig14", Title: "User study (54-user model panel)",
		Header: []string{"Measure", "BOLA", "VOXEL"},
		Notes:  "paper: 84% prefer VOXEL; fluidity +1.7, clarity −0.49, glitches −0.19, overall +0.77; stop 31%/10%; not-watch 74%/36.7%"}
	// Challenging conditions: a low-bandwidth 3G commute trace, 1-segment
	// buffer, as §5.3 describes (throughput down to 0.3 Mbps).
	tr := trace.Riiser3GSet(3)[0]
	bolaAgg := exp.Run(p.cell("BBB", exp.SysBolaQ, tr, 1))
	voxAgg := exp.Run(p.cell("BBB", exp.SysVoxel, tr, 1))
	clip := func(a *exp.Aggregate) survey.Clip {
		var residual []float64
		for _, tr := range a.Trials {
			residual = append(residual, tr.Residual)
		}
		return survey.Clip{
			BufRatio:         stats.Mean(a.BufRatios),
			MeanScore:        stats.Mean(a.AllScores),
			ScoreStdDev:      stats.StdDev(a.AllScores),
			ArtifactFraction: stats.Mean(residual),
		}
	}
	out := survey.NewPanel(54, p.Seed).Evaluate(clip(bolaAgg), clip(voxAgg))
	t.AddRow(label("clarity MOS"), f2(out.MeanA.Clarity), f2(out.MeanB.Clarity))
	t.AddRow(label("glitches MOS"), f2(out.MeanA.Glitches), f2(out.MeanB.Glitches))
	t.AddRow(label("fluidity MOS"), f2(out.MeanA.Fluidity), f2(out.MeanB.Fluidity))
	t.AddRow(label("experience MOS"), f2(out.MeanA.Experience), f2(out.MeanB.Experience))
	t.AddRow(label("preferred"), pct(1-out.PreferB), pct(out.PreferB))
	t.AddRow(label("would stop"), pct(out.WouldStopA), pct(out.WouldStopB))
	t.AddRow(label("would not watch longer"), pct(out.WouldNotWatchA), pct(out.WouldNotWatchB))
	return t
}

// Fig16 regenerates Fig. 16: the 750-packet queue appendix.
func Fig16(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig16", Title: "750-packet router queue",
		Header: []string{"Trace", "Video", "Buf", "BOLA", "VOXEL"},
		Notes:  "paper: VOXEL keeps a (smaller) edge; deep queues challenge loss-based CC"}
	cells := []struct {
		tr    *trace.Trace
		video string
	}{
		{trace.TMobile(), "BBB"},
		{trace.Verizon(), "ToS"},
	}
	for _, cell := range cells {
		for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
			mk := func(sys exp.System) *exp.Aggregate {
				c := p.cell(cell.video, sys, cell.tr, buf)
				c.QueuePackets = netem.LongQueuePackets
				return exp.Run(c)
			}
			t.AddRow(label(cell.tr.Name()), label(cell.video), num(buf),
				pct(mk(exp.SysBolaQ).BufRatioP90()), pct(mk(exp.SysVoxel).BufRatioP90()))
		}
	}
	return t
}

// Fig17 regenerates Fig. 17: the untuned (safety 1.0) VOXEL on T-Mobile.
func Fig17(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig17", Title: "Bandwidth-safety ablation (T-Mobile, ToS)",
		Header: []string{"Buf", "BETA", "VOXEL untuned", "VOXEL tuned"},
		Notes:  "paper: untuned VOXEL is too aggressive on T-Mobile; one safety knob fixes it"}
	tr := trace.TMobile()
	for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
		beta := exp.Run(p.cell("ToS", exp.SysBeta, tr, buf))
		untuned := exp.Run(p.cell("ToS", exp.SysVoxelUntuned, tr, buf))
		tuned := exp.Run(p.cell("ToS", exp.SysVoxel, tr, buf))
		t.AddRow(num(buf), pct(beta.BufRatioP90()),
			pct(untuned.BufRatioP90()), pct(tuned.BufRatioP90()))
	}
	return t
}

// Fig18ab regenerates Fig. 18a,b: the FCC fixed-line trace.
func Fig18ab(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig18ab", Title: "FCC broadband trace",
		Header: []string{"Video", "Buf", "BOLA bufRatio", "VOXEL bufRatio", "BOLA bitrate", "VOXEL bitrate"}}
	tr := trace.FCC()
	for _, v := range p.videos()[:2] {
		for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
			bola := exp.Run(p.cell(v, exp.SysBolaQ, tr, buf))
			vox := exp.Run(p.cell(v, exp.SysVoxel, tr, buf))
			t.AddRow(label(v), num(buf),
				pct(bola.BufRatioP90()), pct(vox.BufRatioP90()),
				mbps(bola.BitrateMean()), mbps(vox.BitrateMean()))
		}
	}
	return t
}

// Fig18cd regenerates Fig. 18c,d: VOXEL with partial reliability disabled.
func Fig18cd(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "Fig18cd", Title: "Partial-reliability ablation",
		Header: []string{"Trace", "Video", "Buf", "VOXEL rel", "VOXEL"},
		Notes:  "paper: disabling unreliable streams roughly doubles bufRatio on Verizon"}
	cells := []struct {
		tr    *trace.Trace
		video string
	}{
		{trace.TMobile(), "BBB"},
		{trace.Verizon(), "ToS"},
	}
	for _, cell := range cells {
		for _, buf := range p.buffers([]int{1, 2, 3, 7}) {
			rel := exp.Run(p.cell(cell.video, exp.SysVoxelRel, cell.tr, buf))
			vox := exp.Run(p.cell(cell.video, exp.SysVoxel, cell.tr, buf))
			t.AddRow(label(cell.tr.Name()), label(cell.video), num(buf),
				pct(rel.BufRatioP90()), pct(vox.BufRatioP90()))
		}
	}
	return t
}

// FigB1 runs the Appendix-B future-work experiment the paper names but
// does not run: VOXEL behind the 750-packet queue with a delay-based
// congestion controller instead of CUBIC.
func FigB1(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "FigB1", Title: "Delay-based CC on long queues (extension)",
		Header: []string{"Trace", "Buf", "VOXEL/CUBIC", "VOXEL/BBR", "CUBIC ssim", "BBR ssim"},
		Notes:  "Appendix B: 'in future work, VOXEL should be evaluated with a delay based CC' — this is that run"}
	cells := []struct {
		tr    *trace.Trace
		video string
	}{
		{trace.TMobile(), "BBB"},
		{trace.Verizon(), "ToS"},
	}
	for _, cell := range cells {
		for _, buf := range p.buffers([]int{1, 3, 7}) {
			mk := func(ccName string) *exp.Aggregate {
				c := p.cell(cell.video, exp.SysVoxel, cell.tr, buf)
				c.QueuePackets = netem.LongQueuePackets
				c.CC = ccName
				return exp.Run(c)
			}
			cubic := mk("cubic")
			bbr := mk("bbr")
			t.AddRow(label(cell.tr.Name()), num(buf),
				pct(cubic.BufRatioP90()), pct(bbr.BufRatioP90()),
				f4(cubic.MeanScore()), f4(bbr.MeanScore()))
		}
	}
	return t
}

// SelectiveRetx regenerates the §4.2 residual-loss statistic: losses
// remaining after buffer-full selective retransmission.
func SelectiveRetx(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "RetxResidual", Title: "Residual loss after selective retransmission (Verizon, VOXEL)",
		Header: []string{"Buf", "residual loss", "skipped (pre-retx)"},
		Notes:  "paper: 0.9% / 1.5% / 1.8% residual loss at 2-, 3-, 7-segment buffers"}
	tr := trace.Verizon()
	for _, buf := range []int{2, 3, 7} {
		agg := exp.Run(p.cell("BBB", exp.SysVoxel, tr, buf))
		var residual, skipped []float64
		for _, trial := range agg.Trials {
			residual = append(residual, trial.Residual)
			skipped = append(skipped, trial.Skipped)
		}
		t.AddRow(num(buf), pct(stats.Mean(residual)), pct(stats.Mean(skipped)))
	}
	return t
}
