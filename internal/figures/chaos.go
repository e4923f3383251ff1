package figures

import (
	"voxel/internal/exp"
	"voxel/internal/netem"
	"voxel/internal/trace"
)

// FigChaos exercises the robustness extension (not a paper exhibit): VOXEL
// streaming BBB over the Verizon trace while the netem impairment profiles
// perturb the path, plus the dual-origin failover scenario where the
// primary path is permanently blackholed mid-stream. QoE should degrade
// gracefully from clean to the harsher profiles — never collapse into an
// unterminated trial — and the clean row must match an unimpaired run
// exactly (the impairment layer is inert at zero intensity).
func FigChaos(p Params) *Table {
	p = p.Defaults()
	t := &Table{ID: "FigChaos", Title: "QoE under network impairment profiles (VOXEL, BBB over Verizon)",
		Header: []string{"Scenario", "bufRatio p90", "Bitrate", "SSIM", "FailedReqs", "Done"},
		Notes:  "recovery stack: request deadlines + retries, idle timeout + keepalive, capped PTO backoff, origin failover"}
	tr := trace.Verizon()
	row := func(name string, cfg exp.Config) {
		agg := exp.Run(cfg)
		var failed float64
		completed := 0
		for _, trial := range agg.Trials {
			failed += float64(trial.FailedReqs)
			if trial.Completed {
				completed++
			}
		}
		t.AddRow(label(name), pct(agg.BufRatioP90()), mbps(agg.BitrateMean()), f3(agg.MeanScore()),
			f1(failed/float64(len(agg.Trials))), ofTotal(completed, len(agg.Trials)))
	}
	for _, prof := range netem.Profiles() {
		cfg := p.cell("BBB", exp.SysVoxel, tr, 7)
		cfg.Impairment = prof
		row(prof, cfg)
	}
	cfg := p.cell("BBB", exp.SysVoxel, tr, 7)
	cfg.Impairment = netem.ProfileHandover
	cfg.Failover = true
	row("failover", cfg)
	return t
}
