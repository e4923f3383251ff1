package abr

import (
	"time"

	"voxel/internal/video"
)

// Beta reimplements BETA [32] from its paper's description, as the VOXEL
// authors did (§5, footnote 3): a bandwidth-efficient temporal adaptation
// over a reliable transport. Each quality level gains exactly one virtual
// level — the segment minus its unreferenced B-frames — and the algorithm
// picks the largest option (real or virtual) whose bitrate fits the
// throughput estimate, with a buffer guard. When throughput collapses
// mid-download, BETA discards the data and refetches the same segment at
// the lowest quality (its worst case, §6).
type Beta struct {
	noSamples
	// Safety scales the throughput estimate.
	Safety float64
	// LowBufferGuard drops to the lowest quality when the buffer is under
	// this many seconds.
	LowBufferGuard time.Duration
}

// NewBeta returns BETA with its defaults.
func NewBeta() *Beta {
	return &Beta{Safety: 0.9, LowBufferGuard: video.SegmentDuration / 2}
}

// Name implements Algorithm.
func (b *Beta) Name() string { return "BETA" }

// Decide implements Algorithm. The candidate space interleaves each
// quality's single virtual level with its full level; BETA's virtual
// levels are exactly the candidates flagged Virtual (the player reads them
// off the manifest, where content preparation put them, for BETA runs).
func (b *Beta) Decide(st State, opts Options) Decision {
	if st.Buffer >= st.BufferCap {
		return Decision{Sleep: st.Buffer - st.BufferCap + time.Millisecond}
	}
	if !st.Startup && st.Buffer < b.LowBufferGuard {
		return Decision{Candidate: opts.Full(0)}
	}
	budget := st.Throughput * b.Safety
	best := opts.Full(0)
	for q := 0; q < len(opts.PerQuality); q++ {
		for _, c := range opts.PerQuality[q] {
			if c.Bitrate() <= budget && c.Bytes > best.Bytes {
				best = c
			}
		}
	}
	return Decision{Candidate: best}
}

// Abandon implements Algorithm: on imminent stall, discard and refetch the
// same segment at the lowest quality.
func (b *Beta) Abandon(st State, opts Options, p Progress) AbandonAction {
	if p.Elapsed < 300*time.Millisecond || p.Throughput <= 0 {
		return AbandonAction{Kind: Continue}
	}
	remaining := p.Candidate.Bytes - p.BytesDone
	if remaining <= 0 {
		return AbandonAction{Kind: Continue}
	}
	finishIn := time.Duration(float64(remaining*8) / (p.Throughput * b.Safety) * float64(time.Second))
	if finishIn <= st.Buffer {
		return AbandonAction{Kind: Continue}
	}
	lowest := opts.Full(0)
	if lowest.Bytes >= remaining || lowest.Bytes >= p.Candidate.Bytes {
		return AbandonAction{Kind: Continue}
	}
	return AbandonAction{Kind: Restart, NewCandidate: lowest}
}
