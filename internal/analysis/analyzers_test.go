package analysis

import "testing"

// The rule runs over its want-diagnostics corpus: the flagged file pins one
// diagnostic per seeded violation, the clean file pins zero false positives
// on the idioms the real packages use.
func TestDeterminismAnalyzer(t *testing.T) {
	RunTest(t, "testdata/src/determinism")
}
