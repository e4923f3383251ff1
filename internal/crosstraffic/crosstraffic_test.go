package crosstraffic

import (
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/sim"
	"voxel/internal/stats"
	"voxel/internal/trace"
)

func run(t *testing.T, seed int64, linkMbps, targetMbps float64, dur time.Duration) (*Generator, *netem.Path, *sim.Sim) {
	t.Helper()
	s := sim.New(seed)
	tr := trace.Constant("link", linkMbps*1e6, int(dur/time.Second)+10)
	path := netem.NewPath(s, tr, 64)
	g := New(s, path, targetMbps*1e6)
	g.Start()
	s.RunUntil(dur)
	return g, path, s
}

func TestOfferedLoadApproximatesTarget(t *testing.T) {
	// On an uncongested link the delivered load should approach the target.
	g, _, _ := run(t, 1, 100, 10, 120*time.Second)
	st := g.Stats()
	achieved := float64(st.BytesDelivered) * 8 / 120
	if achieved < 4e6 || achieved > 25e6 {
		t.Fatalf("achieved %.1f Mbps for a 10 Mbps target", achieved/1e6)
	}
	if st.FlowsStarted == 0 || st.FlowsCompleted == 0 {
		t.Fatalf("no flows ran: %+v", st)
	}
}

func TestLoadIsBursty(t *testing.T) {
	// Harpoon-like traffic is self-similar: per-second delivered bytes
	// must vary substantially (cov > 0.3), not be a constant rate.
	s := sim.New(2)
	tr := trace.Constant("link", 100e6, 200)
	path := netem.NewPath(s, tr, 64)
	g := New(s, path, 10e6)
	g.Start()
	var perSec []float64
	var last uint64
	for sec := 1; sec <= 120; sec++ {
		s.RunUntil(time.Duration(sec) * time.Second)
		st := g.Stats()
		perSec = append(perSec, float64(st.BytesDelivered-last))
		last = st.BytesDelivered
	}
	mean := stats.Mean(perSec)
	sd := stats.StdDev(perSec)
	if mean == 0 {
		t.Fatal("no traffic")
	}
	if cov := sd / mean; cov < 0.3 {
		t.Fatalf("coefficient of variation %.2f — traffic too smooth", cov)
	}
}

func TestReactiveUnderCongestion(t *testing.T) {
	// Offered 30 Mbps through a 10 Mbps link: delivery is capped by the
	// link and flows experience loss (they back off rather than flood).
	g, path, _ := run(t, 3, 10, 30, 60*time.Second)
	st := g.Stats()
	achieved := float64(st.BytesDelivered) * 8 / 60
	if achieved > 11e6 {
		t.Fatalf("achieved %.1f Mbps through a 10 Mbps link", achieved/1e6)
	}
	if st.PacketsLost == 0 {
		t.Fatal("expected losses under congestion")
	}
	ls := path.Down.Stats()
	if ls.Dropped == 0 {
		t.Fatal("queue should have dropped packets")
	}
}

func TestStopHaltsArrivals(t *testing.T) {
	s := sim.New(4)
	tr := trace.Constant("link", 100e6, 600)
	path := netem.NewPath(s, tr, 64)
	g := New(s, path, 10e6)
	g.Start()
	s.RunUntil(20 * time.Second)
	started := g.Stats().FlowsStarted
	if started == 0 {
		t.Fatal("no flows arrived before Stop")
	}
	g.Stop()
	// Stop cancels the pending arrival, so FlowsStarted is final the moment
	// it returns — even after the sim drains every remaining event.
	s.RunUntil(600 * time.Second)
	if got := g.Stats().FlowsStarted; got != started {
		t.Fatalf("flows kept arriving after Stop: %d → %d", started, got)
	}
	// Stop is idempotent and safe with no pending arrival.
	g.Stop()
}

func TestDeterminism(t *testing.T) {
	a, _, _ := run(t, 42, 20, 15, 60*time.Second)
	b, _, _ := run(t, 42, 20, 15, 60*time.Second)
	if a.Stats() != b.Stats() {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestParetoFileSizes(t *testing.T) {
	s := sim.New(5)
	tr := trace.Constant("link", 100e6, 10)
	path := netem.NewPath(s, tr, 64)
	g := New(s, path, 10e6)
	var sizes []float64
	for i := 0; i < 5000; i++ {
		sizes = append(sizes, float64(g.fileSize()))
	}
	mean := stats.Mean(sizes)
	if mean < 0.4*meanFileBytes || mean > 3*meanFileBytes {
		t.Fatalf("mean file size %.0f, want ≈%.0f", mean, meanFileBytes)
	}
	// Heavy tail: the max should dwarf the median.
	med := stats.Percentile(sizes, 50)
	if stats.Max(sizes) < 10*med {
		t.Fatalf("tail not heavy: max %.0f vs median %.0f", stats.Max(sizes), med)
	}
	// Bounds respected.
	if stats.Min(sizes) < 1<<10 || stats.Max(sizes) > 64<<20 {
		t.Fatal("size bounds violated")
	}
}
