package abr

import (
	"math"
	"testing"
	"time"

	"voxel/internal/video"
)

// fixtureOptions builds a plausible decision space straight from the
// ladder: one full candidate per quality, plus (optionally) two virtual
// levels at 80% and 60% of the bytes with slightly lower scores.
func fixtureOptions(virtual bool) Options {
	var opts Options
	seg := segSeconds()
	for q := 0; q < video.NumQualities; q++ {
		full := int(video.Ladder[q].AvgBitrate * seg / 8)
		score := 0.80 + 0.018*float64(q) // 0.80 … 1.016 → capped later
		if score > 0.999 {
			score = 0.999
		}
		var cands []Candidate
		if virtual && q > 0 {
			cands = append(cands,
				Candidate{Quality: video.Quality(q), Bytes: full * 6 / 10, FullBytes: full, Score: score - 0.01, Frames: 60, Virtual: true},
				Candidate{Quality: video.Quality(q), Bytes: full * 8 / 10, FullBytes: full, Score: score - 0.004, Frames: 80, Virtual: true},
			)
		}
		cands = append(cands, Candidate{Quality: video.Quality(q), Bytes: full, FullBytes: full, Score: score, Frames: 96})
		opts.PerQuality = append(opts.PerQuality, cands)
	}
	return opts
}

func st(bufferSec float64, capSegs int, tputMbps float64) State {
	return State{
		Buffer:     time.Duration(bufferSec * float64(time.Second)),
		BufferCap:  time.Duration(capSegs) * video.SegmentDuration,
		Throughput: tputMbps * 1e6,
		Total:      75,
		Index:      10,
	}
}

func TestTputMonotone(t *testing.T) {
	alg := NewTput()
	opts := fixtureOptions(false)
	prev := -1
	for _, mbps := range []float64{0.1, 0.5, 1, 2, 5, 8, 12, 20} {
		d := alg.Decide(st(8, 7, mbps), opts)
		if int(d.Candidate.Quality) < prev {
			t.Fatalf("quality decreased as throughput grew at %v Mbps", mbps)
		}
		prev = int(d.Candidate.Quality)
	}
	// 12 Mbps with 0.9 safety affords Q12 (10 Mbps).
	if d := alg.Decide(st(8, 7, 12), opts); d.Candidate.Quality != 12 {
		t.Fatalf("12 Mbps should afford Q12, got %v", d.Candidate.Quality)
	}
	// 1 Mbps affords Q4 (0.75) but not Q5 (1.05).
	if d := alg.Decide(st(8, 7, 1), opts); d.Candidate.Quality != 4 {
		t.Fatalf("1 Mbps should pick Q4, got %v", d.Candidate.Quality)
	}
}

func TestTputSleepsWhenFull(t *testing.T) {
	alg := NewTput()
	opts := fixtureOptions(false)
	state := st(28, 7, 10)
	if d := alg.Decide(state, opts); d.Sleep <= 0 {
		t.Fatal("full buffer should sleep")
	}
}

func TestBolaBufferMonotone(t *testing.T) {
	opts := fixtureOptions(false)
	prev := -1
	for _, buf := range []float64{0.5, 2, 6, 10, 16, 20, 23} {
		alg := NewBola() // fresh placeholder state per decision
		d := alg.Decide(State{
			Buffer:      time.Duration(buf * float64(time.Second)),
			BufferCap:   7 * video.SegmentDuration,
			Throughput:  0, // disable the fast-start path; pure buffer rule
			LastQuality: 5,
			Total:       75, Index: 10,
		}, opts)
		if d.Sleep > 0 {
			t.Fatalf("unexpected sleep at buffer %v", buf)
		}
		if int(d.Candidate.Quality) < prev {
			t.Fatalf("BOLA quality decreased as buffer grew at %vs: %v < %v",
				buf, d.Candidate.Quality, prev)
		}
		prev = int(d.Candidate.Quality)
	}
	if prev < 10 {
		t.Fatalf("near-full buffer should pick a high quality, got Q%d", prev)
	}
}

func TestBolaSleepsAboveThreshold(t *testing.T) {
	alg := NewBola()
	opts := fixtureOptions(false)
	d := alg.Decide(st(27.8, 7, 10), opts)
	if d.Sleep <= 0 {
		t.Fatalf("BOLA should sleep near capacity, picked %+v", d.Candidate)
	}
}

func TestBolaFastStartFollowsThroughput(t *testing.T) {
	alg := NewBola()
	opts := fixtureOptions(false)
	// Startup: empty buffer but 9 Mbps measured — BOLA-E's placeholder
	// should lift the choice well above Q0.
	d := alg.Decide(State{
		Buffer: 0, BufferCap: 7 * video.SegmentDuration,
		Throughput: 9e6, Startup: true, Total: 75,
	}, opts)
	if d.Candidate.Quality < 6 {
		t.Fatalf("fast start picked %v, want ≥ Q6", d.Candidate.Quality)
	}
	if alg.placeholder <= 0 {
		t.Fatal("placeholder should have grown")
	}
}

func TestBolaAbandonRestartsLower(t *testing.T) {
	alg := NewBola()
	opts := fixtureOptions(false)
	full := opts.Full(10)
	p := Progress{
		Candidate:  full,
		BytesDone:  full.Bytes / 10,
		Elapsed:    2 * time.Second,
		Throughput: 0.4e6, // collapsed
	}
	a := alg.Abandon(st(3, 7, 0.4), opts, p)
	if a.Kind != Restart {
		t.Fatalf("kind = %v, want Restart", a.Kind)
	}
	if a.NewCandidate.Bytes >= full.Bytes {
		t.Fatal("restart candidate should be smaller")
	}
	// Plenty of buffer: continue.
	if a := alg.Abandon(st(24, 7, 8), opts, Progress{
		Candidate: full, BytesDone: full.Bytes / 2,
		Elapsed: 2 * time.Second, Throughput: 8e6,
	}); a.Kind != Continue {
		t.Fatalf("healthy download should continue, got %v", a.Kind)
	}
	// Too-early samples never abandon.
	if a := alg.Abandon(st(1, 7, 0.1), opts, Progress{
		Candidate: full, Elapsed: 100 * time.Millisecond, Throughput: 0.1e6,
	}); a.Kind != Continue {
		t.Fatal("early abandonment check should continue")
	}
}

func TestMPCAdaptsToThroughput(t *testing.T) {
	opts := fixtureOptions(false)
	low, high := NewMPC(), NewMPC()
	for i := 0; i < 5; i++ {
		low.OnSample(Sample{Throughput: 1e6, Duration: time.Second})
		high.OnSample(Sample{Throughput: 12e6, Duration: time.Second})
	}
	state := st(16, 7, 0)
	state.LastQuality = 6
	dLow := low.Decide(state, opts)
	dHigh := high.Decide(state, opts)
	if dLow.Candidate.Quality >= dHigh.Candidate.Quality {
		t.Fatalf("MPC low tput picked %v ≥ high tput %v",
			dLow.Candidate.Quality, dHigh.Candidate.Quality)
	}
	if dHigh.Candidate.Quality < 8 {
		t.Fatalf("12 Mbps steady should pick high quality, got %v", dHigh.Candidate.Quality)
	}
}

func TestMPCAvoidsRebufferingWhenBufferLow(t *testing.T) {
	opts := fixtureOptions(false)
	alg := NewMPC()
	for i := 0; i < 5; i++ {
		alg.OnSample(Sample{Throughput: 6e6, Duration: time.Second})
	}
	lowBuf := st(1, 7, 0)
	lowBuf.LastQuality = 8
	highBuf := st(24, 7, 0)
	highBuf.LastQuality = 8
	dLow := alg.Decide(lowBuf, opts)
	dHigh := alg.Decide(highBuf, opts)
	if dLow.Candidate.Quality > dHigh.Candidate.Quality {
		t.Fatalf("low buffer picked %v > high buffer %v",
			dLow.Candidate.Quality, dHigh.Candidate.Quality)
	}
}

func TestMPCRobustnessDiscountsAfterErrors(t *testing.T) {
	a, b := NewMPC(), NewMPC()
	a.Robust, b.Robust = true, true
	// Same history magnitude, but b saw a large prediction error.
	for i := 0; i < 5; i++ {
		a.OnSample(Sample{Throughput: 8e6})
	}
	b.lastPred = 16e6
	b.OnSample(Sample{Throughput: 8e6})
	for i := 0; i < 4; i++ {
		b.OnSample(Sample{Throughput: 8e6})
	}
	if pa, pb := a.predict(8e6), b.predict(8e6); pb >= pa {
		t.Fatalf("error history should discount prediction: %v vs %v", pb, pa)
	}
}

func TestMPCRespectsMaxStep(t *testing.T) {
	opts := fixtureOptions(false)
	alg := NewMPC()
	for i := 0; i < 5; i++ {
		alg.OnSample(Sample{Throughput: 50e6})
	}
	state := st(20, 7, 0)
	state.LastQuality = 0
	d := alg.Decide(state, opts)
	if int(d.Candidate.Quality) > alg.MaxStep {
		t.Fatalf("first step jumped to %v with MaxStep %d", d.Candidate.Quality, alg.MaxStep)
	}
}

func TestBetaPrefersVirtualOverLowerQuality(t *testing.T) {
	alg := NewBeta()
	opts := fixtureOptions(true)
	// Throughput that affords Q12's 80% virtual level but not full Q12:
	// full Q12 = 10 Mbps, virtual = 8 Mbps, full Q11 = 7.4 Mbps.
	d := alg.Decide(st(8, 7, 9.5), opts)
	if !d.Candidate.Virtual {
		t.Fatalf("expected a virtual candidate, got %+v", d.Candidate)
	}
	if d.Candidate.Quality != 12 {
		t.Fatalf("expected Q12 virtual, got %v", d.Candidate.Quality)
	}
}

func TestBetaLowBufferGuard(t *testing.T) {
	alg := NewBeta()
	opts := fixtureOptions(true)
	state := st(1, 7, 10)
	state.Startup = false
	d := alg.Decide(state, opts)
	if d.Candidate.Quality != 0 {
		t.Fatalf("low buffer should force Q0, got %v", d.Candidate.Quality)
	}
}

func TestBetaAbandonRefetchesLowest(t *testing.T) {
	alg := NewBeta()
	opts := fixtureOptions(true)
	full := opts.Full(11)
	a := alg.Abandon(st(2, 7, 0.3), opts, Progress{
		Candidate: full, BytesDone: full.Bytes / 20,
		Elapsed: time.Second, Throughput: 0.3e6,
	})
	if a.Kind != Restart || a.NewCandidate.Quality != 0 || a.NewCandidate.Virtual {
		t.Fatalf("BETA must refetch lowest full quality, got %+v", a)
	}
}

func TestABRStarUsesVirtualLevels(t *testing.T) {
	alg := NewABRStar()
	opts := fixtureOptions(true)
	// Mid buffer: the score/byte tradeoff should sometimes pick virtual
	// options; verify the decision space includes them by scanning many
	// buffer levels.
	sawVirtual := false
	for buf := 0.5; buf < 26; buf += 0.5 {
		d := alg.Decide(State{
			Buffer:    time.Duration(buf * float64(time.Second)),
			BufferCap: 7 * video.SegmentDuration,
			Total:     75, Index: 5,
		}, opts)
		if d.Sleep == 0 && d.Candidate.Virtual {
			sawVirtual = true
			break
		}
	}
	if !sawVirtual {
		t.Fatal("ABR* never chose a virtual quality level")
	}
}

func TestABRStarSmartAbandonFinishesPartial(t *testing.T) {
	alg := NewABRStar()
	opts := fixtureOptions(true)
	full := opts.Full(10)
	a := alg.Abandon(st(2, 7, 0.5), opts, Progress{
		Candidate: full, BytesDone: full.Bytes / 4,
		Elapsed: time.Second, Throughput: 0.5e6,
	})
	if a.Kind != FinishPartial {
		t.Fatalf("ABR* should finish partial, got %v", a.Kind)
	}
}

func TestSafetyFactorControlsAggression(t *testing.T) {
	// The untuned (1.0) variant must estimate at least as much headroom as
	// the tuned (0.9) one → chooses ≥ quality at startup.
	optsV := fixtureOptions(true)
	tuned := NewABRStarSafety(0.9)
	untuned := NewABRStarSafety(1.0)
	state := State{
		Buffer: 0, BufferCap: 7 * video.SegmentDuration,
		Throughput: 7.6e6, Startup: true, Total: 75,
	}
	dT := tuned.Decide(state, optsV)
	dU := untuned.Decide(state, optsV)
	if dU.Candidate.Bytes < dT.Candidate.Bytes {
		t.Fatalf("untuned picked smaller option (%d) than tuned (%d)",
			dU.Candidate.Bytes, dT.Candidate.Bytes)
	}
}

func TestScoreUtilityMonotone(t *testing.T) {
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.01 {
		u := scoreUtility(s, 1.0)
		if u < prev {
			t.Fatalf("utility decreased at %v", s)
		}
		prev = u
	}
	if scoreUtility(0, 1) != scoreUtility(-1, 1) {
		t.Fatal("negative scores should clamp to zero")
	}
	if scoreUtility(2, 1) != scoreUtility(1, 1) {
		t.Fatal("scores above perfect should clamp")
	}
}

func TestCandidateBitrate(t *testing.T) {
	c := Candidate{Bytes: 5 << 20}
	want := float64(5<<20*8) / 4
	if c.Bitrate() != want {
		t.Fatalf("bitrate %v, want %v", c.Bitrate(), want)
	}
}

func TestNames(t *testing.T) {
	for _, pair := range []struct {
		alg  Algorithm
		want string
	}{
		{NewTput(), "Tput"},
		{NewBola(), "BOLA"},
		{NewMPC(), "MPC"},
		{NewBeta(), "BETA"},
		{NewBolaSSIM(), "BOLA-SSIM"},
		{NewABRStar(), "ABR*"},
	} {
		if pair.alg.Name() != pair.want {
			t.Errorf("name %q, want %q", pair.alg.Name(), pair.want)
		}
	}
}

// flatten lays opts out as the player does: one array in quality order, each
// quality's candidates a window of it.
func flatten(opts Options) Options {
	var out Options
	for _, cs := range opts.PerQuality {
		out.Flat = append(out.Flat, cs...)
	}
	first := 0
	for _, cs := range opts.PerQuality {
		end := first + len(cs)
		out.PerQuality = append(out.PerQuality, out.Flat[first:end:end])
		first = end
	}
	return out
}

func TestWarmDecideAndAbandonZeroAllocs(t *testing.T) {
	// Every algorithm an experiment system runs is asked at each step, at each
	// 250 ms re-ask while the buffer is full and at each abandonment poll:
	// once it has looked at one decision space, looking again allocates
	// nothing, whether the space is laid out flat (the player) or not. MPC's
	// recursive search closure stays on the stack.
	algs := []Algorithm{NewBola(), NewMPC(), NewTput(), NewBeta(), NewBolaSSIM(), NewABRStar(), NewABRStarSafety(1.0)}
	startup := st(0, 7, 9)
	startup.Startup = true
	states := []State{startup, st(1, 7, 0.4), st(8, 7, 3), st(16, 7, 12), st(27.8, 7, 10), st(28, 7, 10)}
	spaces := map[string]Options{"full": fixtureOptions(false), "virtual": fixtureOptions(true), "flat": flatten(fixtureOptions(true))}
	for i, alg := range algs {
		for _, name := range []string{"full", "virtual", "flat"} {
			opts := spaces[name]
			full := opts.Full(10)
			progress := []Progress{
				{Candidate: full, BytesDone: full.Bytes / 10, Elapsed: 2 * time.Second, Throughput: 0.4e6}, // collapsed
				{Candidate: full, BytesDone: full.Bytes / 2, Elapsed: 2 * time.Second, Throughput: 8e6},    // healthy
				{Candidate: full, Elapsed: 100 * time.Millisecond, Throughput: 0.1e6},                      // too early
			}
			for i := 0; i < 5; i++ {
				alg.OnSample(Sample{Throughput: 4e6, Duration: time.Second})
			}
			look := func() {
				for _, s := range states {
					alg.Decide(s, opts)
					for _, p := range progress {
						alg.Abandon(s, opts, p)
					}
				}
			}
			if n := testing.AllocsPerRun(20, look); n != 0 {
				t.Errorf("algorithm %d (%s) over %s options: %.1f mallocs per %d warm decisions and %d abandonment checks, want 0",
					i, alg.Name(), name, n, len(states), len(states)*len(progress))
			}
		}
	}
}

// The per-candidate utility hooks bolaCore had before the one-pass vector,
// kept as the reference: each call rescans the whole set.
func refBitrateUtility(c Candidate, all []Candidate) float64 {
	minBytes := all[0].Bytes
	for _, x := range all {
		if x.Bytes < minBytes {
			minBytes = x.Bytes
		}
	}
	return math.Log(float64(c.Bytes) / float64(minBytes))
}

func refScoreUtility(c Candidate, all []Candidate) float64 {
	perfect := 0.0
	minScore := all[0].Score
	for _, x := range all {
		if x.Score > perfect {
			perfect = x.Score
		}
		if x.Score < minScore {
			minScore = x.Score
		}
	}
	if perfect <= 0 {
		perfect = 1
	}
	return scoreUtility(c.Score, perfect) - scoreUtility(minScore, perfect)
}

func TestUtilityVectorMatchesPerCandidateFormula(t *testing.T) {
	scoreless := fixtureOptions(true)
	for _, cands := range scoreless.PerQuality {
		for i := range cands {
			cands[i].Score = 0 // a manifest without QoE points
		}
	}
	for _, row := range []struct {
		alg *Bola
		ref func(c Candidate, all []Candidate) float64
	}{
		{NewBola(), refBitrateUtility},
		{NewBolaSSIM(), refScoreUtility},
		{NewABRStar(), refScoreUtility},
	} {
		for _, fx := range []struct {
			name string
			opts Options
		}{{"full", fixtureOptions(false)}, {"virtual", fixtureOptions(true)}, {"scoreless", scoreless}} {
			cands := row.alg.candidates(nil, fx.opts)
			utils := row.alg.utilities(nil, cands)
			if len(utils) != len(cands) {
				t.Fatalf("%s/%s: %d utilities for %d candidates", row.alg.Name(), fx.name, len(utils), len(cands))
			}
			for i, c := range cands {
				// Bit-equal, not close: decisions compare these floats.
				if want := row.ref(c, cands); utils[i] != want {
					t.Errorf("%s/%s: candidate %d (%+v): utility %v, reference %v", row.alg.Name(), fx.name, i, c, utils[i], want)
				}
			}
		}
	}
}
