package figures

import (
	"fmt"
	"time"

	"voxel/internal/exp"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/trace"
)

// timelineBucket is the row granularity of the FigTimeline exhibit.
const timelineBucket = 10 * time.Second

// FigTimeline renders one telemetered trial as a playback timeline (not a
// paper exhibit — the obs-layer showcase): VOXEL streaming BBB over the
// T-Mobile trace through the bursty loss profile with a one-segment buffer,
// bucketed into 10-second rows of chosen quality, delivered segments,
// reported unreliable losses, rebuffer time, and abandonments. It is the
// figure-level consumer of the per-trial obs.Timeline the harness exports
// via Config.Telemetry.
func FigTimeline(p Params) *Table {
	p = p.Defaults()
	cfg := p.cell("BBB", exp.SysVoxel, trace.TMobile(), 1)
	cfg.Trials = 1 // one trial IS the exhibit
	cfg.Impairment = netem.ProfileBursty
	cfg.Telemetry = true
	agg := exp.Run(cfg)

	t := &Table{ID: "FigTimeline",
		Title:  "Per-trial playback timeline (VOXEL, BBB over T-Mobile, bursty profile)",
		Header: []string{"t", "Quality", "Segs done", "Loss rep.", "Rebuffer", "Abandons", "Events"},
		Notes:  fmt.Sprintf("from the obs timeline: %s", agg.Obs.Summary())}
	rep := timelineReport(agg)
	if rep == nil {
		t.AddRow(label("no telemetry collected"), Cell{}, Cell{}, Cell{}, Cell{}, Cell{}, Cell{})
		return t
	}

	type bucket struct {
		quality   int64 // last chosen rung (-1 = none yet)
		chosen    int
		done      int
		lossBytes int64
		rebufMs   float64
		abandons  int
		events    int
	}
	var buckets []bucket
	at := func(d time.Duration) *bucket {
		i := int(d / timelineBucket)
		for len(buckets) <= i {
			buckets = append(buckets, bucket{quality: -1})
		}
		return &buckets[i]
	}
	var rebufStart time.Duration
	rebuffering := false
	for _, ev := range rep.Events {
		b := at(ev.At)
		b.events++
		switch ev.Kind {
		case obs.EvSegmentChosen:
			b.quality = ev.B
			b.chosen++
		case obs.EvSegmentDone:
			b.done++
		case obs.EvLossReport:
			b.lossBytes += ev.C
		case obs.EvRebufferStart:
			rebufStart = ev.At
			rebuffering = true
		case obs.EvRebufferStop:
			if rebuffering {
				// Attribute the stall to every bucket the interval spans.
				for s := rebufStart; s < ev.At; {
					edge := (s/timelineBucket + 1) * timelineBucket
					if edge > ev.At {
						edge = ev.At
					}
					at(s).rebufMs += float64((edge - s) / time.Millisecond)
					s = edge
				}
				rebuffering = false
			}
		case obs.EvAbandonPartial, obs.EvAbandonRestart:
			b.abandons++
		}
	}

	quality := int64(-1)
	for i, b := range buckets {
		if b.quality >= 0 {
			quality = b.quality // carry the rung across quiet buckets
		} else {
			b.quality = quality
		}
		var q, rebuf Cell
		if b.quality >= 0 {
			q = label(fmt.Sprintf("L%d", b.quality))
		}
		if b.rebufMs > 0 {
			rebuf = secs1(b.rebufMs / 1000)
		}
		t.AddRow(
			label(fmt.Sprintf("%ds", i*int(timelineBucket/time.Second))),
			q,
			num(b.done),
			kbytes(b.lossBytes),
			rebuf,
			num(b.abandons),
			num(b.events),
		)
	}
	return t
}

// timelineReport picks the exhibit's trial report out of the aggregate.
func timelineReport(agg *exp.Aggregate) *obs.TrialReport {
	if agg.Obs == nil || len(agg.Obs.Trials) == 0 {
		return nil
	}
	return agg.Obs.Trials[0]
}
