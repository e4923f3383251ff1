package abr

// This file builds the paper's two BOLA derivatives (§4.3):
//
//   BOLA-SSIM — BOLA-E with (a) the utility switched from bitrate to a QoE
//   score and (b) the decision space widened to partial-segment downloads
//   (the virtual quality levels from the enriched manifest).
//
//   ABR* — BOLA-SSIM plus the extended segment abandonment: instead of
//   discarding a struggling download and restarting lower (BOLA) or
//   refetching at the lowest quality (BETA), ABR* keeps the partial
//   segment and moves on to the next.
//
// The bandwidth-safety factor is the single tuning knob §5.2 discusses:
// 0.9 is the paper's "less aggressive" setting that fixes the T-Mobile
// behaviour; 1.0 reproduces the untuned, too-aggressive variant
// (Fig. 17).

// NewBolaSSIM returns the intermediate BOLA-SSIM algorithm.
func NewBolaSSIM() *Bola {
	b := newScoreBola("BOLA-SSIM", 0.9)
	return b
}

// NewABRStar returns ABR* with the paper's tuned safety factor.
func NewABRStar() *Bola {
	return NewABRStarSafety(0.9)
}

// NewABRStarSafety returns ABR* with an explicit bandwidth-safety factor
// (1.0 reproduces the untuned Fig. 17 behaviour).
func NewABRStarSafety(safety float64) *Bola {
	b := newScoreBola("ABR*", safety)
	b.smartAbandon = true
	return b
}

// newScoreBola builds the QoE-utility BOLA over the full candidate set.
func newScoreBola(name string, safety float64) *Bola {
	return &Bola{bolaCore{
		name:   name,
		Safety: safety,
		utilities: func(dst []float64, cands []Candidate) []float64 {
			perfect := 0.0
			minScore := cands[0].Score
			for _, x := range cands {
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
			// Utility relative to the worst available option so the
			// cheapest candidate sits at zero, as ln(S/S_min) does.
			floor := scoreUtility(minScore, perfect)
			for _, c := range cands {
				dst = append(dst, scoreUtility(c.Score, perfect)-floor)
			}
			return dst
		},
		candidates: func(dst []Candidate, opts Options) []Candidate {
			return opts.All(dst)
		},
		tputInsurance: true,
	}}
}
