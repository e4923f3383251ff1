package figures

import (
	"strings"
	"testing"
)

// FigTimeline must render real rows from a telemetered bursty trial: the
// timeline carries rebuffer and loss activity, and the rendered table is
// non-degenerate.
func TestFigTimelineRenders(t *testing.T) {
	tab := FigTimeline(Params{Quick: true, Trials: 1, Segments: 20, Seed: 1})
	if len(tab.Rows) < 2 {
		t.Fatalf("timeline collapsed to %d rows:\n%s", len(tab.Rows), tab)
	}
	if tab.Rows[0][0].Label == "no telemetry collected" {
		t.Fatal("telemetry report missing from the exhibit run")
	}
	out := tab.String()
	if !strings.Contains(out, "L") {
		t.Fatalf("no quality rungs rendered:\n%s", out)
	}
	var sawLoss, sawRebuf bool
	for _, row := range tab.Rows {
		if row[3].Value > 0 {
			sawLoss = true
		}
		if row[4].Value > 0 {
			sawRebuf = true
		}
	}
	if !sawLoss {
		t.Errorf("no loss-report bytes in any bucket:\n%s", out)
	}
	if !sawRebuf {
		t.Errorf("no rebuffer time in any bucket:\n%s", out)
	}
}

// Same params, same bytes: the exhibit inherits the telemetry determinism.
func TestFigTimelineDeterministic(t *testing.T) {
	p := Params{Quick: true, Trials: 1, Segments: 12, Seed: 7}
	a := FigTimeline(p).String()
	b := FigTimeline(p).String()
	if a != b {
		t.Fatalf("FigTimeline not deterministic:\n%s\nvs\n%s", a, b)
	}
}
