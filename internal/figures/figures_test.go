package figures

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"voxel/internal/exp"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/trace"
	"voxel/internal/video"
)

func quick() Params { return Params{Quick: true, Trials: 1, Segments: 5, Seed: 3}.Defaults() }

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("not a percentage: %q", s)
	}
	return v
}

func TestStaticTables(t *testing.T) {
	for _, g := range []Generator{
		{"Tab1", "", Table1}, {"Tab2", "", Table2}, {"Tab3", "", Table3},
		{"Prep", "", Prep}, {"Traces", "", Traces},
	} {
		tab := g.Run(quick())
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", g.ID)
		}
		if out := tab.String(); !strings.Contains(out, tab.ID) {
			t.Errorf("%s: String() missing ID", g.ID)
		}
	}
	if len(Table2(quick()).Rows) != 13 {
		t.Error("Tab2 must list 13 rungs")
	}
	if len(Table3(quick()).Rows) != 10 {
		t.Error("Tab3 must list 10 clips")
	}
	listed := map[string]int{}
	for _, r := range Traces(quick()).Rows {
		listed[r[0]]++
	}
	for _, name := range trace.Names() {
		tr, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if listed[tr.Name()] != 1 {
			t.Errorf("Traces lists %s (%s) %d times, want once", name, tr.Name(), listed[tr.Name()])
		}
	}
}

// TestPrepExhibit pins the Prep table to its sources: the ordering
// histogram covers every segment, the tolerance cells are Fig1's
// Q12/SSIM0.99 row, and the overhead cells are SizeOverhead of the
// manifest the trials stream.
func TestPrepExhibit(t *testing.T) {
	p := quick()
	tab := Prep(p)
	if len(tab.Rows) != len(p.videos()) {
		t.Fatalf("%d rows, want one per title %v", len(tab.Rows), p.videos())
	}
	fig1 := map[string][]string{}
	for _, r := range Fig1(p).Rows {
		if r[1] == "Q12/SSIM0.99" {
			fig1[r[0]] = r[2:5]
		}
	}
	orderings := len(prep.Orderings())
	for i, r := range tab.Rows {
		title := p.videos()[i]
		if r[0] != title {
			t.Fatalf("row %d is %s, want %s", i, r[0], title)
		}
		sum := 0
		for _, c := range r[1 : 1+orderings] {
			n, err := strconv.Atoi(c)
			if err != nil {
				t.Fatalf("%s: ordering count %q", title, c)
			}
			sum += n
		}
		if segs := video.MustLoad(title).Segments; sum != segs {
			t.Errorf("%s: ordering histogram sums to %d, want %d segments", title, sum, segs)
		}
		tol := r[1+orderings : 4+orderings]
		if !slices.Equal(tol, fig1[title]) {
			t.Errorf("%s: tolerance %v, Fig1 Q12/SSIM0.99 says %v", title, tol, fig1[title])
		}
		bytes, frac, err := exp.ManifestFor(title, qoe.SSIM, 0).SizeOverhead()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r[4+orderings:], []string{fmt.Sprintf("%d B", bytes), pct(frac)}; !slices.Equal(got, want) {
			t.Errorf("%s: manifest cells %v, SizeOverhead says %v", title, got, want)
		}
	}
	if !strings.Contains(tab.Notes, "≈16%") || !strings.Contains(tab.Notes, tab.Rows[0][len(tab.Header)-1]) {
		t.Errorf("notes must set the measured overhead next to the paper's ≈16%%: %q", tab.Notes)
	}
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1(quick())
	// Q12/0.99 medians should exceed Q9/0.99 medians per title.
	med := map[string]map[string]float64{}
	for _, r := range tab.Rows {
		if med[r[0]] == nil {
			med[r[0]] = map[string]float64{}
		}
		med[r[0]][r[1]] = parsePct(t, r[3])
	}
	for title, m := range med {
		if m["Q9/SSIM0.99"] > m["Q12/SSIM0.99"]+1 {
			t.Errorf("%s: Q9/0.99 median %.1f should collapse below Q12 %.1f",
				title, m["Q9/SSIM0.99"], m["Q12/SSIM0.99"])
		}
		if m["Q9/SSIM0.95"] < m["Q9/SSIM0.99"] {
			t.Errorf("%s: relaxing the target must not reduce tolerance", title)
		}
	}
}

func TestFig2bRankedWins(t *testing.T) {
	tab := Fig2b(quick())
	for _, r := range tab.Rows {
		ranked := parsePct(t, r[1])
		tail := parsePct(t, r[2])
		if ranked+1 < tail {
			t.Errorf("%s: ranked median %.1f%% below tail %.1f%%", r[0], ranked, tail)
		}
	}
}

func TestFig19Anchors(t *testing.T) {
	tab := Fig19(quick())
	vals := map[string]float64{}
	for _, r := range tab.Rows {
		vals[r[0]] = parsePct(t, r[1])
	}
	if vals["P9"] <= vals["P10"] {
		t.Errorf("P9 tolerance %.1f%% must exceed P10 %.1f%%", vals["P9"], vals["P10"])
	}
}

func TestFig6EndToEnd(t *testing.T) {
	tab := Fig6(quick())
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Aggregate relation: VOXEL's total p90 bufRatio across cells should
	// not exceed BOLA's.
	var bola, vox float64
	for _, r := range tab.Rows {
		bola += parsePct(t, r[3])
		vox += parsePct(t, r[5])
	}
	if vox > bola+2 {
		t.Errorf("VOXEL total bufRatio %.1f should not exceed BOLA %.1f", vox, bola)
	}
}

// TestFig6GoldenTable pins the rendered Fig6 table to the exact bytes it
// produced before the transport hot path was rewritten (ordered in-flight
// tracking, buffer pooling). Fig6 runs full end-to-end streaming sessions
// through QUIC*, the player, and the ABR loop, so any nondeterminism or
// behavioral drift in the transport shows up here as a byte diff.
func TestFig6GoldenTable(t *testing.T) {
	p := Params{Quick: true, Trials: 2, Segments: 6, Seed: 1, Parallelism: 1}.Defaults()
	const golden = "== Fig6 — p90 bufRatio: BOLA vs BETA vs VOXEL ==\n" +
		"Trace        Video  Buf  BOLA   BETA   VOXEL\n" +
		"verizon-lte  BBB    1    15.5%  0.4%   8.3% \n" +
		"verizon-lte  BBB    7    0.0%   0.0%   0.0% \n" +
		"tmobile-lte  ToS    1    73.8%  22.3%  33.7%\n" +
		"tmobile-lte  ToS    7    23.4%  11.7%  1.3% \n" +
		"-- paper: VOXEL suffers 25–97% less rebuffering, down to 1-segment buffers\n"
	if got := Fig6(p).String(); got != golden {
		t.Errorf("Fig6 table drifted from the recorded golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func TestFig14Survey(t *testing.T) {
	tab := Fig14(quick())
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// At ultra-quick scale the preference can be noisy, but fluidity must
	// favour VOXEL (that is the mechanism the study confirms).
	for _, r := range tab.Rows {
		if r[0] == "fluidity MOS" {
			a, _ := strconv.ParseFloat(r[1], 64)
			b, _ := strconv.ParseFloat(r[2], 64)
			if b <= a {
				t.Errorf("VOXEL fluidity %v should beat BOLA %v", b, a)
			}
		}
	}
}

func TestExhibitParallelDeterminism(t *testing.T) {
	// A whole exhibit — many Run calls, shared manifest cache — must render
	// the identical table on a second run and whether trials run
	// sequentially or fanned out.
	p := quick()
	p.Trials = 2
	seq := p
	seq.Parallelism = 1
	par := p
	par.Parallelism = 4
	for _, id := range []string{"Fig10", "Fig7a", "Prep", "Traces"} {
		g, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown exhibit %s", id)
		}
		a := g.Run(seq).String()
		if again := g.Run(seq).String(); again != a {
			t.Errorf("%s: second run differs:\n%s\nvs\n%s", id, a, again)
		}
		if b := g.Run(par).String(); b != a {
			t.Errorf("%s: parallel table differs from sequential:\n%s\nvs\n%s", id, a, b)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig6"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID should fail")
	}
	for _, id := range []string{"Prep", "Traces"} {
		if g, ok := ByID(id); !ok || g.ID != id {
			t.Fatalf("ByID(%q) = %q, %v", id, g.ID, ok)
		}
	}
	seen := map[string]bool{}
	for _, g := range All() {
		if seen[g.ID] {
			t.Fatalf("duplicate generator %s", g.ID)
		}
		seen[g.ID] = true
		if g.Run == nil {
			t.Fatalf("%s has no Run", g.ID)
		}
	}
	if len(All()) < 28 {
		t.Fatalf("only %d generators", len(All()))
	}
}
