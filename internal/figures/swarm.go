package figures

import (
	"voxel/internal/exp"
	"voxel/internal/trace"
)

// FigSwarm exercises the shared-bottleneck swarm extension (not a paper
// exhibit): N concurrent VOXEL sessions streaming BBB through one
// Verizon-shaped bottleneck. As the swarm grows, per-session bitrate must
// fall roughly as capacity/N while Jain's fairness index stays high (every
// session runs the same ABR + congestion controller, so nobody should
// starve) and utilization stays near the single-session level. The N=1 row
// doubles as a regression anchor: it must match the classic single-session
// path exactly.
func FigSwarm(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "FigSwarm", Title: "Shared-bottleneck swarm: N concurrent sessions (VOXEL, BBB over Verizon)",
		Header: []string{"Sessions", "Bitrate/sess", "SSIM", "QoE p5", "Jain", "Util", "Stall/sess"},
		Notes:  "one netem path, N full client/server stacks; Jain over delivered bitrates, util until last session finished"}
	sweep := []int{1, 2, 4, 8}
	if p.Quick {
		sweep = []int{1, 4}
	}
	tr := trace.Verizon()
	for _, n := range sweep {
		cfg := p.cell("BBB", exp.SysVoxel, tr, 3)
		cfg.Sessions = n
		agg := exp.Run(cfg)
		sessions := float64(len(agg.Trials) * n)
		t.AddRow(num(n), mbps(agg.BitrateMean()), f3(agg.MeanScore()),
			f3(agg.SessionQoEP5()), f3(agg.JainMean()), pct(agg.UtilizationMean()),
			secs2(agg.TotalStall().Seconds()/sessions),
		)
	}
	return t
}
