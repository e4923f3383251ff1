package abr

import (
	"math"
	"time"

	"voxel/internal/video"
)

// MPC implements MPC [73]: model-predictive control over a five-segment
// horizon with a harmonic-mean throughput prediction. The utility is the
// standard bitrate QoE: average bitrate minus a rebuffering penalty minus
// a smoothness penalty.
//
// The prediction is deliberately not error-discounted (RobustMPC): §5.1
// attributes MPC's poor trace performance to its throughput prediction,
// which the robust variant would mask. Set Robust to true for the
// discounted prediction.
type MPC struct {
	// Robust enables the RobustMPC error-discounted prediction.
	Robust bool
	// Horizon is the look-ahead depth (paper: ≈5 segments).
	Horizon int
	// RebufPenalty is λ_rebuf in utility units per second of stall.
	RebufPenalty float64
	// SwitchPenalty weights |bitrate changes| between segments.
	SwitchPenalty float64
	// MaxStep bounds the per-step quality change explored (search-space
	// pruning, §4.3's note that MPC needs curbing).
	MaxStep int

	history  []float64 // measured throughputs, newest last
	errs     []float64 // relative prediction errors
	lastPred float64
}

// NewMPC returns robust MPC with the standard parameters.
func NewMPC() *MPC {
	return &MPC{
		Horizon:       5,
		RebufPenalty:  4.3, // Mbps-equivalents per second, as in the MPC paper
		SwitchPenalty: 1.0,
		MaxStep:       3,
	}
}

// Name implements Algorithm.
func (m *MPC) Name() string { return "MPC" }

// OnSample records a measured download throughput and the realized
// prediction error.
func (m *MPC) OnSample(s Sample) {
	if s.Throughput <= 0 {
		return
	}
	if m.lastPred > 0 {
		err := math.Abs(m.lastPred-s.Throughput) / s.Throughput
		m.errs = append(m.errs, err)
		if len(m.errs) > 5 {
			m.errs = m.errs[1:]
		}
	}
	m.history = append(m.history, s.Throughput)
	if len(m.history) > 5 {
		m.history = m.history[1:]
	}
}

// predict returns the robust throughput estimate.
func (m *MPC) predict(fallback float64) float64 {
	if len(m.history) == 0 {
		return fallback * 0.8
	}
	var inv float64
	for _, t := range m.history {
		inv += 1 / t
	}
	harmonic := float64(len(m.history)) / inv
	if !m.Robust {
		return harmonic
	}
	maxErr := 0.0
	for _, e := range m.errs {
		if e > maxErr {
			maxErr = e
		}
	}
	return harmonic / (1 + maxErr)
}

// Decide implements Algorithm: exhaustive search over bounded quality
// sequences, exact size for the next segment and ladder averages beyond.
func (m *MPC) Decide(st State, opts Options) Decision {
	if st.Buffer >= st.BufferCap {
		return Decision{Sleep: st.Buffer - st.BufferCap + time.Millisecond}
	}
	pred := m.predict(st.Throughput)
	m.lastPred = pred
	if pred <= 0 {
		pred = 1e5
	}

	horizon := m.Horizon
	if remaining := st.Total - st.Index; remaining < horizon {
		horizon = remaining
	}
	if horizon < 1 {
		horizon = 1
	}
	nq := len(opts.PerQuality)
	seg := segSeconds()

	mbps := func(q int) float64 { return video.Ladder[q].AvgBitrate / 1e6 }
	// sizeOf returns the download size in bits at step k (0-based).
	sizeOf := func(k, q int) float64 {
		if k == 0 {
			return float64(opts.Full(video.Quality(q)).Bytes * 8)
		}
		return video.Ladder[q].AvgBitrate * seg
	}

	bestVal := math.Inf(-1)
	bestFirst := 0
	var walk func(k, prevQ int, buffer, val float64, firstQ int)
	walk = func(k, prevQ int, buffer, val float64, firstQ int) {
		if k == horizon {
			if val > bestVal {
				bestVal = val
				bestFirst = firstQ
			}
			return
		}
		lo, hi := prevQ-m.MaxStep, prevQ+m.MaxStep
		if lo < 0 {
			lo = 0
		}
		if hi > nq-1 {
			hi = nq - 1
		}
		for q := lo; q <= hi; q++ {
			dl := sizeOf(k, q) / pred
			rebuf := dl - buffer
			if rebuf < 0 {
				rebuf = 0
			}
			nb := buffer - dl
			if nb < 0 {
				nb = 0
			}
			nb += seg
			if nb > st.BufferCap.Seconds() {
				nb = st.BufferCap.Seconds()
			}
			stepVal := mbps(q) - m.RebufPenalty*rebuf - m.SwitchPenalty*math.Abs(mbps(q)-mbps(prevQ))
			f := firstQ
			if k == 0 {
				f = q
			}
			walk(k+1, q, nb, val+stepVal, f)
		}
	}
	walk(0, int(st.LastQuality), st.Buffer.Seconds(), 0, 0)

	return Decision{Candidate: opts.Full(video.Quality(bestFirst))}
}

// Abandon implements Algorithm: the paper's MPC does not abandon.
func (m *MPC) Abandon(State, Options, Progress) AbandonAction {
	return AbandonAction{Kind: Continue}
}
