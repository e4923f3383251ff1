package figures

import (
	"slices"
	"testing"

	"voxel/internal/video"
)

// The §3 claims, as data: each row sets one sentence of the paper (an
// exhibit's Notes, or its DESIGN §4 line) against the values of the cells it
// names, at paper scale. The offline exhibits ignore Trials, so paper scale
// costs about a second. Bounds are in the units a column prints: per cent,
// Mbps, MB.
//
// A band holds when every named value lies in [lo-tol, hi+tol]. An ordering
// holds when each group of values lies at or below the next: the largest
// value of one group is at most the smallest of the next plus tol, so a
// negative tol asks for that margin ("≫"). A row with per holds when it holds
// for each label of that column.
//
// A known miss keeps its reason and the band the reproduction measures. Its
// row fails if the claim starts to hold (the miss closed: unpin it) or if a
// value leaves the pinned band (the miss moved), so neither passes unseen.

type kind int

const (
	band kind = iota
	ordering
)

// cells names value cells of one exhibit: column col of every row that
// carries each label of all and, when any is set, one label of any.
type cells struct {
	col string
	all []string
	any []string
}

type claim struct {
	name    string
	kind    kind
	exhibit string
	per     string  // a label column: the claim holds for each of its labels
	cells   []cells // a band's cells, or an ordering's groups, lowest first
	lo, hi  float64 // a band's bounds
	tol     float64
	paper   string     // the sentence the row encodes
	miss    string     // why the reproduction misses the claim
	pinned  [2]float64 // the values a miss measures
}

func at(col string, all ...string) cells { return cells{col: col, all: all} }

// rungs is one group per quality level, Q0 first, in column col of Tab2.
func rungs(col string) []cells {
	var gs []cells
	for q := video.Quality(0); q < video.NumQualities; q++ {
		gs = append(gs, at(col, q.String()))
	}
	return gs
}

// fig15Caps holds each Fig. 15 rung's peak to twice the ladder's average.
func fig15Caps() []claim {
	var cs []claim
	for _, q := range []video.Quality{12, 11, 10, 8, 6, 4} {
		cs = append(cs, claim{name: "peaks-capped-" + q.String(), kind: band, exhibit: "Fig15",
			cells: []cells{at("max", q.String())}, hi: 2 * video.Ladder[q].AvgBitrate / 1e6, tol: 1e-9,
			paper: "capped VBR: peaks at most 2× the rung average"})
	}
	return cs
}

var claims = append([]claim{
	{name: "stddev-band", kind: band, exhibit: "Tab1",
		cells: []cells{at("StdDev(measured)")}, lo: 3.52, hi: 7.5,
		paper: "Tab. 1: the four titles' per-segment bitrate stddevs span 3.52–7.5 Mbps"},
	{name: "75-segments", kind: band, exhibit: "Tab1",
		cells: []cells{at("Segments")}, lo: 75, hi: 75,
		paper: "DESIGN §4: BBB/ED/Sintel/ToS, 75×4 s segments"},
	{name: "bitrate-rises", kind: ordering, exhibit: "Tab2", cells: rungs("AvgBitrate"),
		paper: "DESIGN §4: quality ladder Q0–Q12, 0.16–10 Mbps"},
	{name: "bitrate-Q0", kind: band, exhibit: "Tab2",
		cells: []cells{at("AvgBitrate", "Q0")}, lo: 0.16, hi: 0.16,
		paper: "DESIGN §4: quality ladder Q0–Q12, 0.16–10 Mbps"},
	{name: "bitrate-Q12", kind: band, exhibit: "Tab2",
		cells: []cells{at("AvgBitrate", "Q12")}, lo: 10, hi: 10,
		paper: "DESIGN §4: quality ladder Q0–Q12, 0.16–10 Mbps"},
	{name: "size-rises", kind: ordering, exhibit: "Tab2", cells: rungs("TotalSize(BBB)"),
		paper: "Tab. 2: BBB's total size grows with the rung, 5.8 MB at Q0 to 357 MB at Q12"},
	// A synthetic title is its rung's average rate for its whole length;
	// the paper's encodes land a few per cent under their nominal rate.
	{name: "size-Q0", kind: band, exhibit: "Tab2",
		cells: []cells{at("TotalSize(BBB)", "Q0")}, lo: 5.8, hi: 5.8, tol: 0.05 * 5.8,
		paper: "Tab. 2: BBB's total size grows with the rung, 5.8 MB at Q0 to 357 MB at Q12"},
	{name: "size-Q12", kind: band, exhibit: "Tab2",
		cells: []cells{at("TotalSize(BBB)", "Q12")}, lo: 357, hi: 357, tol: 0.05 * 357,
		paper: "Tab. 2: BBB's total size grows with the rung, 5.8 MB at Q0 to 357 MB at Q12"},
	{name: "P8-least-P6-most", kind: ordering, exhibit: "Tab3",
		cells: []cells{at("StdDev(measured)", "P8"),
			{col: "StdDev(measured)", any: []string{"P1", "P2", "P3", "P4", "P5", "P7", "P9", "P10"}},
			at("StdDev(measured)", "P6")},
		paper: "Tab. 3: of the ten clips P8 varies least (1.6 Mbps) and P6 most (4.35 Mbps)"},
	{name: "manifest-overhead", kind: band, exhibit: "Prep",
		cells: []cells{at("Overhead")}, lo: 16, hi: 16, tol: 4,
		paper: "§4.1: the enriched manifest is ≈16% of an average Q12 segment",
		miss: "the per-frame reliable/unreliable byte-range lists, 95 ranges per segment at each of 13 rungs, " +
			"are 52 % of a Q12 segment as MPD XML (ROADMAP item 5)",
		pinned: [2]float64{58.5, 61.8}},
	{name: "q12-tolerates-10-20", kind: band, exhibit: "Fig1",
		cells: []cells{{col: "median", all: []string{"Q12/SSIM0.99"}, any: []string{"BBB", "ED", "ToS", "P2", "P4"}}},
		lo:    10, hi: 20,
		paper: "at Q12/0.99 ≥half the segments sustain 10–20% drops"},
	{name: "q12-tolerates-10-20-Sintel", kind: band, exhibit: "Fig1",
		cells: []cells{at("median", "Q12/SSIM0.99", "Sintel")}, lo: 10, hi: 20,
		paper: "at Q12/0.99 ≥half the segments sustain 10–20% drops",
		miss: "Sintel's synthetic profile has the most motion (0.60) and least staticness (0.25) of the four titles, " +
			"so its median segment drops 8 of 95 frames, two short of the band",
		pinned: [2]float64{8.4, 8.5}},
	{name: "q9-collapses", kind: band, exhibit: "Fig1",
		cells: []cells{at("median", "Q9/SSIM0.99")}, tol: 2,
		paper: "tolerance collapses at Q9/0.99"},
	{name: "q9-below-q12", kind: ordering, exhibit: "Fig1", per: "Video",
		cells: []cells{at("median", "Q9/SSIM0.99"), at("median", "Q12/SSIM0.99")}, tol: 1,
		paper: "tolerance collapses at Q9/0.99"},
	// Recovering reads as regaining at least the Q12/0.99 tolerance.
	{name: "q9-recovers-at-0.95", kind: ordering, exhibit: "Fig1", per: "Video",
		cells: []cells{at("median", "Q9/SSIM0.99"), at("median", "Q12/SSIM0.99"), at("median", "Q9/SSIM0.95")},
		paper: "tolerance collapses at Q9/0.99 and recovers at Q9/0.95"},
	{name: "BBB-q9-below-0.99", kind: band, exhibit: "Fig1d",
		cells: []cells{at("frac<0.99", "BBB", "Q9")}, lo: 85, hi: 100,
		paper: "85% of BBB and 96% of ToS segments at Q9 score below 0.99"},
	{name: "ToS-q9-below-0.99", kind: band, exhibit: "Fig1d",
		cells: []cells{at("frac<0.99", "ToS", "Q9")}, lo: 96, hi: 100,
		paper: "85% of BBB and 96% of ToS segments at Q9 score below 0.99"},
	{name: "drops-early-middle-late", kind: band, exhibit: "Fig2a",
		cells: []cells{at("16-31"), at("48-63"), at("80-95")}, lo: 10, hi: 100,
		paper: "droppable frames are distributed throughout the segment"},
	{name: "not-clustered-at-tail", kind: ordering, exhibit: "Fig2a", per: "Video",
		cells: []cells{at("80-95"), at("16-31")}, tol: 1,
		paper: "droppable frames are … not clustered at the tail"},
	{name: "ranked-tolerates-more", kind: ordering, exhibit: "Fig2b", per: "Video",
		cells: []cells{at("tail median"), at("ranked median")}, tol: -5,
		paper: "tail-only drops tolerate far fewer frames"},
	{name: "tail-hits-referenced", kind: ordering, exhibit: "Fig2b", per: "Video",
		cells: []cells{at("ranked ref-share"), at("tail ref-share")}, tol: -1,
		paper: "tail-only drops … hit more referenced frames (51.75% BBB / 46% ToS)"},
	{name: "virtual-levels-mean", kind: ordering, exhibit: "Fig2cd", per: "Video",
		cells: []cells{at("mean", "Q10"), at("mean", "Q11"), at("mean", "Q12/0.95"), at("mean", "Q12/0.99"), at("mean", "Q12")},
		tol:   -0.1,
		paper: "Q12/0.99 sits between Q11 and Q12 — a finer rung from frame drops alone"},
	{name: "virtual-levels-median", kind: ordering, exhibit: "Fig2cd", per: "Video",
		cells: []cells{at("median", "Q10"), at("median", "Q11"), at("median", "Q12/0.95"), at("median", "Q12/0.99"), at("median", "Q12")},
		tol:   -0.1,
		paper: "Q12/0.99 sits between Q11 and Q12 — a finer rung from frame drops alone"},
	{name: "P9-most-P10-least-q12", kind: ordering, exhibit: "Fig19",
		cells: []cells{at("Q12/0.99", "P10"),
			{col: "Q12/0.99", any: []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"}},
			at("Q12/0.99", "P9")}, tol: -2,
		paper: "P9 (static) tolerates huge drops, P10 (dance) almost none"},
	{name: "P9-most-P10-least-q9-0.95", kind: ordering, exhibit: "Fig19",
		cells: []cells{at("Q9/0.95", "P10"),
			{col: "Q9/0.95", any: []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"}},
			at("Q9/0.95", "P9")}, tol: -2,
		paper: "P9 (static) tolerates huge drops, P10 (dance) almost none"},
	{name: "P9-80pct-q9-0.95", kind: band, exhibit: "Fig19",
		cells: []cells{at("Q9/0.95", "P9")}, lo: 80, hi: 100,
		paper: "Fig. 19: P9 sustains 80% drops at Q9/0.95"},
	{name: "P10-almost-none-q12", kind: band, exhibit: "Fig19",
		cells: []cells{at("Q12/0.99", "P10")}, hi: 5,
		paper: "P10 (dance) almost none"},
	{name: "q9-collapses", kind: band, exhibit: "Fig19",
		cells: []cells{at("Q9/0.99")}, tol: 2,
		paper: "Fig. 1: tolerance collapses at Q9/0.99"},
	{name: "referenced-share", kind: band, exhibit: "RefShares",
		cells: []cells{at("mean ref share")}, lo: 12.6, hi: 30,
		paper: "12.6% (ToS) to 30% (Sintel) of dropped frames are referenced",
		miss: "half of the synthetic GOP's frames are unreferenced outer B-frames, and a 0.99 drop set " +
			"(8–16 % of frames) almost never exhausts them, so the ranked order seldom reaches a referenced frame",
		pinned: [2]float64{0, 0.2}},
}, fig15Caps()...)

// values returns the named cells of tab, failing when the column is unknown
// or no row matches: a selector that matches nothing would pass unseen.
func (c cells) values(t *testing.T, tab *Table, extra string) []float64 {
	t.Helper()
	col := slices.Index(tab.Header, c.col)
	if col < 0 {
		t.Fatalf("%s has no column %q", tab.ID, c.col)
	}
	all := c.all
	if extra != "" {
		all = append(slices.Clip(all), extra)
	}
	var vs []float64
	for _, r := range tab.Rows {
		var labels []string
		for _, cell := range r {
			if cell.Label != "" {
				labels = append(labels, cell.Label)
			}
		}
		has := func(l string) bool { return slices.Contains(labels, l) }
		if !slices.ContainsFunc(all, func(l string) bool { return !has(l) }) &&
			(len(c.any) == 0 || slices.ContainsFunc(c.any, has)) {
			vs = append(vs, r[col].Value)
		}
	}
	if len(vs) == 0 {
		t.Fatalf("%s: no row carries %v (any of %v) in column %q", tab.ID, all, c.any, c.col)
	}
	return vs
}

// check reports whether the claim holds on tab, with every value it read.
func (c claim) check(t *testing.T, tab *Table) (bool, []float64) {
	t.Helper()
	scopes := []string{""}
	if c.per != "" {
		col := slices.Index(tab.Header, c.per)
		if col < 0 {
			t.Fatalf("%s has no column %q", tab.ID, c.per)
		}
		scopes = nil
		for _, r := range tab.Rows {
			if !slices.Contains(scopes, r[col].Label) {
				scopes = append(scopes, r[col].Label)
			}
		}
	}
	holds := true
	var all []float64
	for _, scope := range scopes {
		var groups [][]float64
		for _, sel := range c.cells {
			vs := sel.values(t, tab, scope)
			groups = append(groups, vs)
			all = append(all, vs...)
		}
		for i, g := range groups {
			switch c.kind {
			case band:
				for _, v := range g {
					if v < c.lo-c.tol || v > c.hi+c.tol {
						t.Logf("%s %v: %g out of [%g, %g] ± %g", scope, c.cells[i], v, c.lo, c.hi, c.tol)
						holds = false
					}
				}
			case ordering:
				if i > 0 && slices.Max(groups[i-1]) > slices.Min(g)+c.tol {
					t.Logf("%s: %v max %g above %v min %g (+%g)", scope,
						c.cells[i-1], slices.Max(groups[i-1]), c.cells[i], slices.Min(g), c.tol)
					holds = false
				}
			}
		}
	}
	return holds, all
}

func TestClaims(t *testing.T) {
	p := Params{}.Defaults()
	tables := map[string]*Table{}
	seen := map[string]bool{}
	for _, c := range claims {
		id := c.exhibit + "/" + c.name
		if seen[id] {
			t.Fatalf("two claims named %s", id)
		}
		seen[id] = true
		if tables[c.exhibit] == nil {
			g, ok := ByID(c.exhibit)
			if !ok {
				t.Fatalf("%s: unknown exhibit", id)
			}
			tables[c.exhibit] = g.Run(p)
		}
		tab := tables[c.exhibit]
		t.Run(id, func(t *testing.T) {
			holds, vs := c.check(t, tab)
			t.Logf("measured %g–%g; paper: %s", slices.Min(vs), slices.Max(vs), c.paper)
			switch {
			case c.miss == "" && !holds:
				t.Errorf("claim fails: %s", c.paper)
			case c.miss != "" && holds:
				t.Errorf("pinned miss now holds, unpin it: %s", c.paper)
			case c.miss != "":
				if lo, hi := slices.Min(vs), slices.Max(vs); lo < c.pinned[0] || hi > c.pinned[1] {
					t.Errorf("pinned miss moved: measured %g–%g, pinned %g–%g (%s)", lo, hi, c.pinned[0], c.pinned[1], c.miss)
				}
			}
		})
	}
}
