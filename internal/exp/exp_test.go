package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"voxel/internal/qoe"
	"voxel/internal/trace"
	"voxel/internal/video"
)

func smallCfg(sys System) Config {
	return Config{
		Title:          "BBB",
		System:         sys,
		BufferSegments: 3,
		Trace:          trace.Verizon(),
		Trials:         2,
		Segments:       6,
		Seed:           1,
	}
}

func TestRunBasic(t *testing.T) {
	agg := Run(smallCfg(SysVoxel))
	if len(agg.Trials) != 2 {
		t.Fatalf("%d trials", len(agg.Trials))
	}
	for i, tr := range agg.Trials {
		if !tr.Completed {
			t.Fatalf("trial %d did not complete", i)
		}
		if len(tr.Scores) != 6 {
			t.Fatalf("trial %d: %d scores", i, len(tr.Scores))
		}
		if tr.AvgBitrate <= 0 {
			t.Fatalf("trial %d: no bitrate", i)
		}
		if tr.BufRatio < 0 || tr.BufRatio > 10 {
			t.Fatalf("trial %d: bufRatio %v", i, tr.BufRatio)
		}
	}
	if agg.ScoreCDF().Len() != 12 {
		t.Fatalf("CDF over %d scores, want 12", agg.ScoreCDF().Len())
	}
}

func TestAllSystemsRun(t *testing.T) {
	for _, sys := range []System{
		SysBolaQ, SysBolaQStar, SysMPCQ, SysTputQ, SysBeta,
		SysBolaSSIM, SysVoxel, SysVoxelRel, SysVoxelUntuned,
	} {
		cfg := smallCfg(sys)
		cfg.Trials = 1
		cfg.Segments = 4
		agg := Run(cfg)
		if len(agg.Trials) != 1 || !agg.Trials[0].Completed {
			t.Errorf("%s: trial failed", sys)
		}
	}
}

func TestUnknownSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newAlgorithm(System("nope"))
}

func TestTraceShiftingVariesTrials(t *testing.T) {
	cfg := smallCfg(SysBolaQ)
	cfg.Trace = trace.TMobile()
	cfg.Trials = 3
	agg := Run(cfg)
	// With a highly varying trace the shifted trials should not be all
	// identical in delivered bitrate.
	same := agg.Bitrates[0] == agg.Bitrates[1] && agg.Bitrates[1] == agg.Bitrates[2]
	if same {
		t.Fatal("trace shifting produced identical trials")
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(smallCfg(SysVoxel))
	b := Run(smallCfg(SysVoxel))
	for i := range a.Trials {
		if a.Trials[i].BufRatio != b.Trials[i].BufRatio ||
			a.Trials[i].AvgBitrate != b.Trials[i].AvgBitrate {
			t.Fatalf("trial %d not deterministic", i)
		}
	}
}

func TestCrossTrafficRun(t *testing.T) {
	cfg := smallCfg(SysVoxel)
	cfg.Trace = nil
	cfg.CrossTraffic = 10e6
	cfg.LinkCapacity = 20e6
	cfg.Trials = 1
	agg := Run(cfg)
	if !agg.Trials[0].Completed {
		t.Fatal("cross-traffic trial failed")
	}
}

// TestCrossTrafficBytesPinned pins what a cross-traffic trial simulates: no
// golden and no benchmark workload runs the Harpoon generator, so this hash
// over each trial's bufRatio, bitrate, scores and generator counters is the
// one place a change to its arrivals, flows or their events shows. A change
// that moves cross traffic on purpose regenerates it.
func TestCrossTrafficBytesPinned(t *testing.T) {
	cfg := smallCfg(SysVoxel)
	cfg.Trace = nil
	cfg.CrossTraffic = 15e6
	cfg.LinkCapacity = 20e6
	cfg.Segments = 5
	h := sha256.New()
	for trial := 0; trial < cfg.Trials; trial++ {
		w := newWorld(cfg, trial)
		if terr := w.build(); terr != nil {
			t.Fatal(terr)
		}
		if terr := w.run(); terr != nil {
			t.Fatal(terr)
		}
		tr, st := w.harvest(), w.gen.Stats()
		w.s.Release()
		if !tr.Completed || st.FlowsStarted == 0 {
			t.Fatalf("trial %d: completed=%v, %d flows started", trial, tr.Completed, st.FlowsStarted)
		}
		fmt.Fprintf(h, "%d %x %x %+v", trial, math.Float64bits(tr.BufRatio), math.Float64bits(tr.AvgBitrate), st)
		for _, v := range tr.Scores {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	const want = "646ad75e436df8dd90ec364c95a6eaa36444bc4120c5fbf4f22c94af17076acd"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("cross-traffic trials hash to %s, want %s", got, want)
	}
}

func TestMetricVariants(t *testing.T) {
	for _, m := range []qoe.Metric{qoe.SSIM, qoe.VMAF, qoe.PSNR} {
		cfg := smallCfg(SysVoxel)
		cfg.Metric = m
		cfg.Trials = 1
		cfg.Segments = 4
		agg := Run(cfg)
		if !agg.Trials[0].Completed {
			t.Fatalf("%v: failed", m)
		}
		if m != qoe.SSIM && agg.MeanScore() <= 1.2 {
			t.Fatalf("%v: scores look like SSIM: %v", m, agg.MeanScore())
		}
	}
}

func TestManifestCaching(t *testing.T) {
	a := ManifestFor("ToS", qoe.SSIM, 4)
	b := ManifestFor("ToS", qoe.SSIM, 4)
	if a != b {
		t.Fatal("manifest not cached")
	}
	c := ManifestFor("ToS", qoe.VMAF, 4)
	if a == c {
		t.Fatal("different metrics must not share manifests")
	}
	// 0, the clip's own length and anything past it all name the full clip:
	// one title, one entry.
	full := ManifestFor("ToS", qoe.SSIM, 0)
	if full.NumSegments() != video.DefaultSegments {
		t.Fatalf("full clip has %d segments", full.NumSegments())
	}
	for _, n := range []int{video.DefaultSegments, 200, -1} {
		if ManifestFor("ToS", qoe.SSIM, n) != full {
			t.Fatalf("segments=%d prepared the full clip a second time", n)
		}
	}
	if a == full {
		t.Fatal("a 4-segment clip shares the full clip's manifest")
	}
}

func TestWorldsShareThePreparedTitle(t *testing.T) {
	cfg := smallCfg(SysBeta)
	cfg.Trials = 4
	want := prepared(cfg.Title, cfg.Metric, cfg.Segments)
	if want.v.Segments != cfg.Segments || want.m.NumSegments() != cfg.Segments {
		t.Fatalf("prepared %d/%d segments, want %d", want.v.Segments, want.m.NumSegments(), cfg.Segments)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		if w := newWorld(cfg, trial); w.video != want.v || w.man != want.m {
			t.Fatalf("trial %d's world has its own video or manifest", trial)
		}
	}
}

// warmTrialCost runs cfg's single trial 1+runs times and returns the median
// mallocs and bytes of the warm runs, and their largest byte count. The first
// run warms the title and a kernel, which every later run reuses with its
// packet store. The median keeps a run the runtime's background work lands
// in from deciding the count.
func warmTrialCost(t *testing.T, cfg Config, runs int) (mallocs, bytes, maxBytes uint64) {
	t.Helper()
	var mallocsOf, bytesOf []uint64
	for run := 0; run <= runs; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if agg := Run(cfg); len(agg.Failed) > 0 || !agg.Trials[0].Completed {
			t.Fatal("trial did not complete")
		}
		runtime.ReadMemStats(&after)
		if run > 0 {
			mallocsOf = append(mallocsOf, after.Mallocs-before.Mallocs)
			bytesOf = append(bytesOf, after.TotalAlloc-before.TotalAlloc)
		}
	}
	slices.Sort(mallocsOf)
	slices.Sort(bytesOf)
	return mallocsOf[runs/2], bytesOf[runs/2], bytesOf[runs-1]
}

func TestWarmBetaTrialMallocBudget(t *testing.T) {
	// A trial reads the prepared title; it does not synthesize video or run
	// the QoE model over candidates. BETA was the worst case — every rung of
	// every segment re-analysed on every look: 22,920 mallocs for this cell
	// before preparation moved offline, about 1,360 after, about 960 since a
	// world's kernel — events, bucket arrays, the wheel — is the previous
	// world's, 918 since a session reuses its decision space, loss vector and
	// coverage scratch, 354 (376 under the race detector) since the kernel
	// also keeps the packet storage of its worlds and a request names its
	// ranges in the manifest, 249 (268–274 under the race detector) since it
	// also keeps the streams and responses of its worlds, and 143 (162 under
	// the race detector) since a request builds no closure: its callbacks
	// are bound once to the kernel's responses, request readers and download
	// records, and the HTTP scratch is the kernel's too. The budget is the
	// race figure plus 4 %.
	cfg := smallCfg(SysBeta)
	cfg.Trials = 1
	cfg.Segments = 4
	mallocs, bytes, maxBytes := warmTrialCost(t, cfg, 31)
	if mallocs > 169 {
		t.Fatalf("a warm 4-segment BETA trial does %d mallocs, budget 169", mallocs)
	}
	// The wheel alone is 8,192 slice headers: a world that builds its own
	// spends more on it than this whole trial may.
	const wheel = 8192 * 24
	if bytes >= wheel {
		t.Fatalf("a warm 4-segment BETA trial allocates %d B, budget %d B (one timing wheel)", bytes, wheel)
	}
	t.Logf("median %d mallocs, %d B (max %d B)", mallocs, bytes, maxBytes)
}

// TestWarmSwarmTrialMallocBudget: in a world of many connections the packet
// storage is most of what a trial would allocate if it were not the kernel's
// — every connection regrowing its own records, sent-packet entries and
// frames up to its peak in flight. Eight sessions of three segments on a
// warm kernel measured a median of 3,029 mallocs and 502 KB (3,228 mallocs
// under the race detector); with the storage per connection, 4,663 mallocs
// and 713 KB. Since the kernel also keeps the streams and responses of its
// worlds, 1,900 mallocs and 351 KB (2,073–2,096 mallocs under the race
// detector); since a request builds no closure and the HTTP scratch and the
// download records are the kernel's, 1,080 mallocs and 206 KB (1,256–1,261
// under the race detector). The budget is the race figure plus 4 %.
func TestWarmSwarmTrialMallocBudget(t *testing.T) {
	cfg := smallCfg(SysVoxel)
	cfg.Trials, cfg.Segments, cfg.Sessions = 1, 3, 8
	mallocs, bytes, maxBytes := warmTrialCost(t, cfg, 15)
	if mallocs > 1311 {
		t.Fatalf("a warm 8-session, 3-segment VOXEL trial does %d mallocs, budget 1311", mallocs)
	}
	t.Logf("median %d mallocs, %d B (max %d B)", mallocs, bytes, maxBytes)
}
