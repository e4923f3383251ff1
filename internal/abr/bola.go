package abr

import (
	"math"
	"time"

	"voxel/internal/video"
)

// Bola implements BOLA [63] with the BOLA-E practicalities from [62]: a
// placeholder buffer for fast startup and download abandonment with
// restart. The utility function is pluggable — NewBola uses the classic
// ln(S/S_min) bitrate utility over full segments; bolaCore is reused by
// BOLA-SSIM and ABR* with a QoE utility over the full candidate set.
type Bola struct {
	bolaCore
}

// NewBola returns BOLA with the bitrate utility (the paper's baseline).
func NewBola() *Bola {
	return &Bola{bolaCore{
		name:   "BOLA",
		Safety: 0.9,
		utilities: func(dst []float64, cands []Candidate) []float64 {
			minBytes := cands[0].Bytes
			for _, x := range cands {
				if x.Bytes < minBytes {
					minBytes = x.Bytes
				}
			}
			for _, c := range cands {
				dst = append(dst, math.Log(float64(c.Bytes)/float64(minBytes)))
			}
			return dst
		},
		candidates: func(dst []Candidate, opts Options) []Candidate {
			// Full segments only.
			for q := range opts.PerQuality {
				dst = append(dst, opts.Full(video.Quality(q)))
			}
			return dst
		},
	}}
}

// bolaCore holds the Lyapunov machinery shared by BOLA, BOLA-SSIM, and
// ABR*.
type bolaCore struct {
	noSamples
	name string
	// Safety scales throughput estimates used for startup and abandonment.
	Safety float64
	// utilities appends to dst each candidate's (increasing) utility, in one
	// pass: what depends on the whole set — its cheapest or best member — is
	// found once per decision.
	utilities func(dst []float64, cands []Candidate) []float64
	// candidates selects the decision space from the options: appended to
	// dst, or opts.Flat itself when that is the whole space.
	candidates func(dst []Candidate, opts Options) []Candidate
	// smartAbandon switches abandonment from restart (BOLA-E) to
	// finish-partial (ABR*, §4.3).
	smartAbandon bool
	// tputInsurance caps buffer-driven picks by the safety-scaled
	// throughput estimate (§4.3's bandwidth-safety factor; ABR* and
	// BOLA-SSIM). The allowance grows with buffer occupancy so a full
	// buffer may still risk a higher pick.
	tputInsurance bool

	// placeholder implements BOLA-E's virtual buffer for startup.
	placeholder time.Duration

	// Scratch kept across Decide and Abandon calls, so a look at the
	// decision space allocates nothing.
	cands []Candidate
	utils []float64
}

// Name implements Algorithm.
func (b *bolaCore) Name() string { return b.name }

// decisionSpace returns the candidates of opts, valid until the next call:
// built in b's scratch, or opts.Flat read in place — the caller's array never
// becomes scratch.
func (b *bolaCore) decisionSpace(opts Options) []Candidate {
	cands := b.candidates(b.cands[:0], opts)
	if len(opts.Flat) == 0 || &cands[0] != &opts.Flat[0] {
		b.cands = cands
	}
	return cands
}

// params derives V and γp from the buffer capacity and the utility range,
// following the BOLA paper: the top option is picked at a buffer threshold
// just under capacity, the bottom option at a small reserve level.
func (b *bolaCore) params(st State, cands []Candidate, utils []float64) (V, gp float64) {
	seg := segSeconds()
	cap := st.BufferCap.Seconds()
	qt := cap - seg // stop/download threshold
	if qt < seg {
		qt = seg
	}
	ql := seg / 2
	if ql > cap/4 {
		ql = cap / 4
	}
	uMax := utils[0]
	for _, u := range utils {
		if u > uMax {
			uMax = u
		}
	}
	if uMax <= 0 {
		uMax = 1e-6
	}
	V = (qt - ql) / uMax
	gp = ql / V
	return V, gp
}

// Decide implements Algorithm.
func (b *bolaCore) Decide(st State, opts Options) Decision {
	cands := b.decisionSpace(opts)
	b.utils = b.utilities(b.utils[:0], cands)
	utils := b.utils
	V, gp := b.params(st, cands, utils)

	// Effective buffer includes the BOLA-E placeholder.
	effQ := st.Buffer.Seconds() + b.placeholder.Seconds()

	bestIdx, bestScore := -1, math.Inf(-1)
	for i, c := range cands {
		score := (V*(utils[i]+gp) - effQ) / float64(c.Bytes)
		numerator := V*(utils[i]+gp) - effQ
		if numerator <= 0 {
			continue
		}
		if score > bestScore {
			bestScore = score
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		// Buffer above every threshold: wait for it to drain.
		return Decision{Sleep: 250 * time.Millisecond}
	}
	choice := cands[bestIdx]

	// BOLA-E safeguard (as in the dash.js BolaRule the paper's baseline
	// uses): the buffer rule may not jump above both the throughput rule
	// and the previously selected quality — that combination means the
	// buffer is stale information.
	if st.Throughput > 0 {
		ti := b.throughputChoice(st, cands)
		li := b.lastQualityIndex(st, cands)
		tU := -1.0
		if ti >= 0 {
			tU = utils[ti]
		}
		if li >= 0 && utils[bestIdx] > tU && utils[bestIdx] > utils[li] {
			if ti >= 0 && utils[ti] > utils[li] {
				bestIdx = ti
			} else {
				bestIdx = li
			}
			choice = cands[bestIdx]
		}
	}

	if b.tputInsurance && st.Throughput > 0 {
		// Bandwidth-safety insurance: the effective budget scales with the
		// buffer (an empty buffer cannot afford risk; a full one can).
		frac := 0.0
		if st.BufferCap > 0 {
			frac = st.Buffer.Seconds() / st.BufferCap.Seconds()
			if frac > 1 {
				frac = 1
			}
		}
		budget := st.Throughput * b.Safety * (0.85 + 0.65*frac)
		// "A client may fetch bytes beyond this threshold, if conditions
		// permit" (§4.1): upgrade to the best-scoring candidate the budget
		// affords — completing the segment when scores tie.
		upIdx := -1
		for i, c := range cands {
			if c.Bitrate() > budget {
				continue
			}
			if upIdx < 0 || c.Score > cands[upIdx].Score ||
				(c.Score == cands[upIdx].Score && c.Frames > cands[upIdx].Frames) {
				upIdx = i
			}
		}
		if upIdx >= 0 && cands[upIdx].Score > choice.Score {
			choice = cands[upIdx]
			bestIdx = upIdx
		}
		if choice.Bitrate() > budget {
			// Best BOLA-scoring candidate that fits the budget.
			capIdx := -1
			var capScore float64
			for i, c := range cands {
				if c.Bitrate() > budget {
					continue
				}
				score := (V*(utils[i]+gp) - effQ) / float64(c.Bytes)
				if capIdx < 0 || score > capScore {
					capIdx = i
					capScore = score
				}
			}
			if capIdx < 0 {
				// Nothing fits: take the smallest option.
				capIdx = 0
				for i, c := range cands {
					if c.Bytes < cands[capIdx].Bytes {
						capIdx = i
					}
				}
			}
			choice = cands[capIdx]
			bestIdx = capIdx
		}
	}

	// BOLA-E fast start: if the throughput rule picks a better option than
	// the buffer rule, grow the placeholder so BOLA follows it.
	if tputIdx := b.throughputChoice(st, cands); tputIdx >= 0 {
		if utils[tputIdx] > utils[bestIdx] {
			// Minimal effective buffer at which tputIdx beats everything
			// cheaper: grow placeholder to that point.
			need := b.minBufferFor(cands, utils, V, gp, tputIdx)
			if need > effQ {
				b.placeholder += time.Duration((need - effQ) * float64(time.Second))
			}
			choice = cands[tputIdx]
		}
	}
	// The placeholder drains like real buffer: consume one segment's worth
	// per decision.
	if b.placeholder > 0 {
		dec := time.Duration(float64(choice.Bytes*8) / math.Max(st.Throughput, 1) * float64(time.Second))
		if dec > b.placeholder {
			b.placeholder = 0
		} else {
			b.placeholder -= dec
		}
	}
	return Decision{Candidate: choice}
}

// throughputChoice returns the index of the biggest candidate whose
// bitrate fits under the safety-scaled throughput, or -1.
func (b *bolaCore) throughputChoice(st State, cands []Candidate) int {
	budget := st.Throughput * b.Safety
	best := -1
	for i, c := range cands {
		if c.Bitrate() <= budget && (best < 0 || c.Bytes > cands[best].Bytes) {
			best = i
		}
	}
	return best
}

// lastQualityIndex finds the full candidate at the previously selected
// quality, or -1.
func (b *bolaCore) lastQualityIndex(st State, cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if c.Quality == st.LastQuality && !c.Virtual {
			return i
		}
		if c.Quality == st.LastQuality && best < 0 {
			best = i
		}
	}
	return best
}

// minBufferFor computes the smallest buffer level at which candidate idx
// has the maximal BOLA score among all candidates with lower utility.
func (b *bolaCore) minBufferFor(cands []Candidate, utils []float64, V, gp float64, idx int) float64 {
	need := 0.0
	for j := range cands {
		if j == idx || utils[j] >= utils[idx] {
			continue
		}
		sj, si := float64(cands[j].Bytes), float64(cands[idx].Bytes)
		if si == sj {
			continue
		}
		// Buffer level where score(idx) == score(j).
		q := V * (sj*(utils[idx]+gp) - si*(utils[j]+gp)) / (sj - si)
		if q > need {
			need = q
		}
	}
	return need
}

// Abandon implements Algorithm. BOLA-E discards and restarts lower when
// finishing the current download would stall playback; ABR*
// (smartAbandon) instead keeps the partial segment and moves on.
func (b *bolaCore) Abandon(st State, opts Options, p Progress) AbandonAction {
	if p.Elapsed < 300*time.Millisecond || p.Throughput <= 0 {
		return AbandonAction{Kind: Continue}
	}
	remaining := p.Candidate.Bytes - p.BytesDone
	if remaining <= p.Candidate.Bytes/5 {
		// Nearly done: finishing is always cheaper than starting over.
		return AbandonAction{Kind: Continue}
	}
	finishIn := time.Duration(float64(remaining*8) / (p.Throughput * b.Safety) * float64(time.Second))
	if finishIn <= st.Buffer+time.Second {
		return AbandonAction{Kind: Continue}
	}
	if b.smartAbandon {
		// §4.3: retain the partial segment and move on — but only once a
		// stall is genuinely imminent; every extra frame downloaded before
		// the cut raises the virtual quality achieved.
		if finishIn <= st.Buffer+2500*time.Millisecond {
			return AbandonAction{Kind: Continue}
		}
		return AbandonAction{Kind: FinishPartial}
	}
	// BOLA-E: restart at the best candidate downloadable within roughly
	// the remaining buffer (with a small floor so a momentary dip doesn't
	// crash quality to the bottom rung).
	cands := b.decisionSpace(opts)
	budget := p.Throughput * b.Safety * math.Max(st.Buffer.Seconds(), 2.0)
	best := cands[0]
	for _, c := range cands {
		if float64(c.Bytes*8) <= budget && c.Bytes > best.Bytes {
			best = c
		}
	}
	if best.Bytes >= remaining {
		return AbandonAction{Kind: Continue}
	}
	return AbandonAction{Kind: Restart, NewCandidate: best}
}
