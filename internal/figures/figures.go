// Package figures regenerates every table and figure of the paper's
// evaluation. Each generator returns a Table of printable rows whose
// *shape* (who wins, by roughly what factor, where crossovers fall) is
// comparable against the published plots; EXPERIMENTS.md records the
// comparison. The generators are shared by bench_test.go (one benchmark
// per exhibit) and cmd/voxel-bench (the full harness).
package figures

import (
	"fmt"
	"strings"

	"voxel/internal/exp"
	"voxel/internal/qoe"
	"voxel/internal/trace"
)

// Params scales the experiment size. The paper uses 30 trials over
// 75-segment clips; Quick mode shrinks sweeps for CI-sized runs.
type Params struct {
	// Trials per cell (paper: 30).
	Trials int
	// Segments per clip (paper: 75; 0 keeps 75).
	Segments int
	// Quick restricts sweeps (fewer videos/buffers) for fast runs.
	Quick bool
	// Seed for determinism.
	Seed int64
	// Parallelism is the trial worker count handed to exp.Config: 0 and 1
	// run sequentially, negative means GOMAXPROCS. Exhibits are bit-identical
	// at any setting.
	Parallelism int
}

// Defaults fills unset fields.
func (p Params) Defaults() Params {
	if p.Trials == 0 {
		if p.Quick {
			p.Trials = 2
		} else {
			p.Trials = 10
		}
	}
	if p.Segments == 0 {
		if p.Quick {
			p.Segments = 8
		} else {
			p.Segments = 25
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

func (p Params) videos() []string {
	if p.Quick {
		return []string{"BBB", "ToS"}
	}
	return []string{"BBB", "ED", "Sintel", "ToS"}
}

// riiserSetSize is how many Riiser 3G traces Fig. 10 streams over: the
// paper's 86, or 8 in quick mode.
func (p Params) riiserSetSize() int {
	if p.Quick {
		return 8
	}
	return 86
}

func (p Params) buffers(full []int) []int {
	if p.Quick && len(full) > 2 {
		return []int{full[0], full[len(full)-1]}
	}
	return full
}

// Table is one exhibit's regenerated data.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

func f2(x float64) string   { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string   { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string   { return fmt.Sprintf("%.4f", x) }
func pct(x float64) string  { return fmt.Sprintf("%.1f%%", 100*x) }
func mbps(x float64) string { return fmt.Sprintf("%.2f Mbps", x/1e6) }

// cell builds an experiment config for the common sweep pattern.
func (p Params) cell(title string, sys exp.System, tr *trace.Trace, bufSegs int) exp.Config {
	return exp.Config{
		Title:          title,
		System:         sys,
		BufferSegments: bufSegs,
		Trace:          tr,
		Trials:         p.Trials,
		Segments:       p.Segments,
		Seed:           p.Seed,
		Metric:         qoe.SSIM,
		Parallelism:    p.Parallelism,
	}
}

// Generator produces one exhibit.
type Generator struct {
	ID   string
	Name string
	Run  func(Params) *Table
}

// All lists every exhibit generator in paper order.
func All() []Generator {
	return []Generator{
		{"Tab1", "Evaluation videos (Tab. 1)", Table1},
		{"Tab2", "Quality ladder (Tab. 2)", Table2},
		{"Tab3", "YouTube videos (Tab. 3)", Table3},
		{"Prep", "Offline preparation (§4.1)", Prep},
		{"Traces", "Bandwidth traces (§5)", Traces},
		{"Fig1", "Frame-drop tolerance CDFs (Fig. 1a–c)", Fig1},
		{"Fig1d", "Low-quality SSIM distributions (Fig. 1d)", Fig1d},
		{"Fig2a", "Droppable-frame positions (Fig. 2a)", Fig2a},
		{"Fig2b", "Ranked vs tail-only drops (Fig. 2b)", Fig2b},
		{"Fig2cd", "Virtual quality levels (Fig. 2c,d)", Fig2cd},
		{"Fig3", "Vanilla ABR over QUIC*: bufRatio (Fig. 3)", Fig3},
		{"Fig4", "Vanilla ABR over QUIC*: bitrate (Fig. 4)", Fig4},
		{"Fig5", "Vanilla ABR with cross traffic (Fig. 5)", Fig5},
		{"Fig6", "BOLA vs BETA vs VOXEL: bufRatio (Fig. 6)", Fig6},
		{"Fig7a", "QoE-metric-agnostic bufRatio (Fig. 7a)", Fig7a},
		{"Fig7bc", "SSIM and VMAF distributions (Fig. 7b,c)", Fig7bc},
		{"Fig7d", "Data skipped vs buffer (Fig. 7d)", Fig7d},
		{"Fig8", "VOXEL vs BOLA bitrates (Fig. 8)", Fig8},
		{"Fig9", "SSIM CDFs across scenarios (Fig. 9)", Fig9},
		{"Fig10", "BOLA vs BOLA-SSIM vs VOXEL over 3G (Fig. 10)", Fig10},
		{"Fig11", "Synthetic constant/step traces (Fig. 11a–c)", Fig11},
		{"Fig11d", "In-the-wild trials (Fig. 11d, 13)", Fig11d},
		{"Fig12", "VOXEL with cross traffic (Fig. 12)", Fig12},
		{"Fig14", "User-study MOS (Fig. 14, §5.3)", Fig14},
		{"Fig15", "Per-segment bitrate variation (Fig. 15)", Fig15},
		{"Fig16", "750-packet queues (Fig. 16)", Fig16},
		{"Fig17", "Untuned VOXEL (Fig. 17)", Fig17},
		{"Fig18ab", "FCC trace (Fig. 18a,b)", Fig18ab},
		{"Fig18cd", "Partial-reliability ablation (Fig. 18c,d)", Fig18cd},
		{"Fig19", "YouTube-set tolerance (Fig. 19)", Fig19},
		{"FigB1", "Delay-based CC on long queues (App. B extension)", FigB1},
		{"RetxResidual", "Selective-retransmission residual loss (§4.2)", SelectiveRetx},
		{"RefShares", "Referenced frames among drops (§3)", ReferencedShares},
		{"FigChaos", "QoE under impairment profiles + failover (robustness ext.)", FigChaos},
		{"FigSwarm", "Shared-bottleneck swarm: fairness and utilization vs N", FigSwarm},
		{"FigTimeline", "Per-trial playback timeline from obs telemetry", FigTimeline},
	}
}

// ByID finds a generator.
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if strings.EqualFold(g.ID, id) {
			return g, true
		}
	}
	return Generator{}, false
}
