package analysis

import "testing"

// Each analyzer runs over its want-diagnostics corpus: the flagged file
// pins one diagnostic per seeded violation, the clean file pins zero
// false positives on the idioms the real packages use.

func TestDeterminismAnalyzer(t *testing.T) {
	RunTest(t, DeterminismAnalyzer, "testdata/src/determinism")
}

func TestPoolPairAnalyzer(t *testing.T) {
	RunTest(t, PoolPairAnalyzer, "testdata/src/poolpair")
}

func TestHotPathAnalyzer(t *testing.T) {
	RunTest(t, HotPathAnalyzer, "testdata/src/hotpath")
}
