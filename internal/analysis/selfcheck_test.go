package analysis

import "testing"

// TestSuiteCleanOnRepo runs the determinism rule over every package of the
// module's trial closure — the same pass CI's voxel-vet gate performs — and
// demands zero diagnostics. It type-checks the closure from source, so it
// is the slowest test in the package; -short skips it and leaves the corpus
// test to cover the rule's behavior.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-closure typecheck; covered by voxel-vet in CI")
	}
	gated, err := TrialClosure()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	// The closure is computed, not listed: a broken computation must not
	// gate nothing and pass.
	for _, p := range []string{TrialRoot, "voxel/internal/sim", "voxel/internal/crosstraffic", "voxel/internal/video"} {
		if !gated[p] {
			t.Errorf("the trial closure (%d packages) misses %s", len(gated), p)
		}
	}
	diags, err := Vet("voxel/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
