package chaos

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"voxel/internal/exp"
	"voxel/internal/trace"
)

// The tuple generator is the campaign's determinism root: one seed, one
// sequence of configs, every one of them runnable and armed.
func TestRandomArtifactDeterministic(t *testing.T) {
	draw := func() []exp.Config {
		rng := rand.New(rand.NewSource(99))
		out := make([]exp.Config, 8)
		for i := range out {
			out[i] = RandomConfig(rng)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("tuple %d differs across identical seeds:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	for _, cfg := range a {
		if cfg.Title == "" || cfg.System == "" || cfg.Seed == 0 || (cfg.Trace == nil) == (cfg.CrossTraffic == 0) {
			t.Fatalf("degenerate tuple: %+v", cfg)
		}
		if !cfg.Invariants || cfg.WatchdogWall == 0 || cfg.WatchdogEvents == 0 {
			t.Fatalf("tuple not armed: %+v", cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("unrunnable tuple %+v: %v", cfg, err)
		}
	}
}

// Shrinking an injected failure strips every riding dimension — failover,
// impairment, swarm, the sweep, clip length, seed — because the deliberate
// fault reproduces under all of them; and the whole walk is deterministic.
func TestShrinkInjectedFailure(t *testing.T) {
	big := exp.Config{
		Title:      "BBB",
		Trace:      trace.Verizon(),
		Segments:   8,
		Trials:     2,
		Seed:       5,
		Sessions:   2,
		Impairment: "bursty",
		Failover:   true,
		Inject:     "invariant@1",
	}
	ok, te := Reproduces(big, "exp.injected-fault")
	if !ok || te.Trial != 1 {
		t.Fatalf("big config does not fail at trial 1 (ok=%v te=%v)", ok, te)
	}
	small := Shrink(te, nil)
	if c := small.Config; c.Failover || c.Impairment != "" || c.Sessions != 1 {
		t.Fatalf("riding dimensions not stripped: %+v", c)
	}
	// The fault is pinned to trial 1, so the sweep cannot collapse: the
	// shrinker must have tried and kept both trials.
	if small.Config.Trials != 2 || small.Trial != 1 {
		t.Fatalf("sweep collapsed past the failing trial: %+v", small)
	}
	if small.Config.Segments > 2 || small.Config.Seed != 1 {
		t.Fatalf("clip/seed not minimized: %+v", small.Config)
	}
	if ok, got := Reproduces(small.Config, small.Rule); !ok {
		t.Fatalf("shrunk config does not reproduce (got %v)", got)
	}
	again := Shrink(te, nil)
	if !reflect.DeepEqual(small.Artifact(), again.Artifact()) {
		t.Fatalf("shrink not deterministic:\n%+v\n%+v", small.Artifact(), again.Artifact())
	}

	// An unpinned fault fires in trial 0 of any sweep: the one-trial step
	// holds and the artifact names trial 0 of 1.
	big.Inject = "invariant"
	_, te = Reproduces(big, "")
	if small = Shrink(te, nil); small.Config.Trials != 1 || small.Trial != 0 {
		t.Fatalf("sweep not collapsed: %+v", small)
	}
}

// The committed known-good artifact must keep reproducing its recorded
// violation — this is the regression test for the whole artifact pipeline
// (decode → Spec.Config → run as recorded → rule match).
func TestCommittedArtifactReproduces(t *testing.T) {
	b, err := os.ReadFile("../../testdata/repro/injected-invariant.json")
	if err != nil {
		t.Fatal(err)
	}
	a, err := exp.DecodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := a.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	ok, te := Reproduces(cfg, a.Violation)
	if !ok {
		t.Fatalf("committed artifact did not reproduce (got %+v)", te)
	}
	// The file is exactly what the pipeline writes for that failure.
	if got, _ := te.Artifact().Encode(); string(got) != string(b) {
		t.Fatalf("committed artifact is not canonical:\n%s\nvs\n%s", got, b)
	}
}

// A healthy config neither fails nor reports reproduction.
func TestReproducesCleanArtifact(t *testing.T) {
	ok, te := Reproduces(exp.Config{Title: "BBB", Trace: trace.Verizon(), Segments: 4}, "")
	if ok || te != nil {
		t.Fatalf("clean config reported a failure: %+v", te)
	}
}
