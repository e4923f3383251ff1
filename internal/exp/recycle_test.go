package exp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/sim"
)

// A trial's kernel goes to the next trial (sim.Release), so what a world a
// kernel served before — a clean one, one halted by the watchdog in an event
// storm, none at all — must not show in any result.

// freshTrials runs every trial of cfg on a kernel no world has used — its
// packet store empty too: the released kernels are dropped before each.
// Assemble stamps the telemetry reports with their trial index, as Run's
// fold does.
func freshTrials(cfg Config) []Trial {
	cfg = cfg.withDefaults()
	trials := make([]Trial, cfg.Trials)
	for ti := range trials {
		sim.DropReleased()
		trials[ti], _ = runTrial(cfg, ti)
	}
	return Assemble(cfg, trials, nil).Trials
}

// TestRecycledKernelTrialsBitIdentical runs two cells on recycled kernels:
// a bursty cellular trace with telemetry, and VOXEL through handover
// blackouts onto a second origin — request deadlines, retries, a failover,
// and unreliable streams that can arrive before the head announcing them —
// so what the kernel keeps of a world (events, packet storage, streams,
// responses) is exercised on every recovery path.
func TestRecycledKernelTrialsBitIdentical(t *testing.T) {
	bursty := burstyCfg()
	bursty.Trials, bursty.Segments = 8, 6
	failover := chaosCfg(netem.ProfileHandover, true)
	failover.Trials, failover.Telemetry = 4, true
	for _, cell := range []struct {
		name string
		cfg  Config
	}{{"bursty", bursty}, {"failover", failover}} {
		t.Run(cell.name, func(t *testing.T) { recycledTrialsBitIdentical(t, cell.cfg) })
	}
}

func recycledTrialsBitIdentical(t *testing.T, cfg Config) {
	want := freshTrials(cfg)
	var retries, failovers uint64
	for ti, tr := range want {
		if tr.Failed || tr.Obs == nil {
			t.Fatalf("reference trial %d: failed=%v, telemetry=%v", ti, tr.Failed, tr.Obs != nil)
		}
		retries += tr.Obs.Counters[obs.CRetries]
		failovers += tr.Obs.Counters[obs.CFailovers]
	}
	if cfg.Failover && (retries == 0 || failovers == 0) {
		t.Fatalf("the failover cell is too tidy to prove anything: %d retries, %d failovers", retries, failovers)
	}

	// Leave the released kernels with histories: a trial that panicked (its
	// kernel is dropped, not recycled) and trials stopped mid-storm by the
	// watchdog (theirs are, with the storm still pending).
	for _, inject := range []string{"panic", "spin"} {
		bad := cfg
		bad.Inject, bad.WatchdogEvents, bad.Parallelism = inject, 200_000, 2
		if agg := Run(bad); len(agg.Failed) != bad.Trials {
			t.Fatalf("inject %s: %d of %d trials failed", inject, len(agg.Failed), bad.Trials)
		}
	}

	for _, par := range []int{1, 4} {
		c := cfg
		c.Parallelism = par
		if got := Run(c).Trials; !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: trials on recycled kernels differ from trials on fresh ones", par)
		}
	}

	// Odd trials, then even: every world meets a kernel that last served a
	// different trial than in the runs above.
	got := make([]Trial, cfg.Trials)
	for _, parity := range []int{1, 0} {
		c := cfg
		c.Parallelism = 2
		err := RunPartial(c, func(ti int) bool { return ti%2 != parity },
			func(ti int, tr Trial, _ *TrialError) error {
				got[ti] = tr
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(Assemble(cfg, got, nil).Trials, want) {
		t.Fatal("trials run as two partial sweeps differ from trials on fresh kernels")
	}
}

// A harvested Trial holds values read off its world, not the world: the
// telemetry scopes stamp events through a closure over the kernel's clock,
// and the kernel is another world's by the time the report is exported.
func TestTrialResultDoesNotRetainKernel(t *testing.T) {
	cfg := burstyCfg().withDefaults()
	export := func(tr Trial) []byte {
		var b bytes.Buffer
		if err := Assemble(cfg, []Trial{tr}, nil).Obs.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	tr, te := runTrial(cfg, 0)
	if te != nil {
		t.Fatal(te)
	}
	before := export(tr)

	other := cfg
	other.Seed, other.Segments, other.MaxSimTime = 99, 4, time.Minute
	for range 3 {
		if _, te := runTrial(other, 0); te != nil {
			t.Fatal(te)
		}
	}
	if after := export(tr); !bytes.Equal(before, after) {
		t.Fatal("a trial's telemetry export changed after its kernel served other trials")
	}
	if len(before) == 0 || tr.Obs.Recorded == 0 {
		t.Fatal("the trial recorded no telemetry to compare")
	}
}
