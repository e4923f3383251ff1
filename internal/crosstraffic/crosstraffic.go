// Package crosstraffic implements a Harpoon-style flow-level traffic
// generator (§5.1, "In-lab trials with cross traffic"): clients fetch files
// of heavy-tailed (Pareto) sizes at exponentially distributed think times,
// producing self-similar load with pronounced high- and low-bandwidth
// regions rather than a constant rate. Each flow runs a Reno-style AIMD
// congestion controller through the same bottleneck queue as the video
// traffic, so the competing load is reactive, as with Harpoon's TCP flows.
package crosstraffic

import (
	"math"

	"voxel/internal/cc"
	"voxel/internal/netem"
	"voxel/internal/sim"
)

const (
	// packetSize is the cross-traffic MTU (matches the video traffic).
	packetSize = cc.MSS + 40
	// meanFileBytes is the mean Pareto file size.
	meanFileBytes float64 = 256 << 10
	// paretoAlpha is the file-size tail index (heavy-tailed).
	paretoAlpha float64 = 1.3
)

// Stats summarizes generator activity.
type Stats struct {
	FlowsStarted   uint64
	FlowsCompleted uint64
	BytesDelivered uint64
	PacketsLost    uint64
}

// Generator drives the cross-traffic flows.
type Generator struct {
	sim  *sim.Sim
	path *netem.Path
	// targetRate is the average offered load in bits per second.
	targetRate float64

	stats Stats
	// arrival fires at the next flow arrival. Stop stops it: an arrival
	// scheduled before Stop must not start one last flow.
	arrival *sim.Timer
}

// New returns a generator offering targetRate bps of load through path.
func New(s *sim.Sim, path *netem.Path, targetRate float64) *Generator {
	g := &Generator{sim: s, path: path, targetRate: targetRate}
	g.arrival = sim.NewTimer(s, func() {
		g.startFlow(g.fileSize())
		g.scheduleArrival()
	})
	return g
}

// Stats returns a snapshot of the counters.
func (g *Generator) Stats() Stats { return g.stats }

// Stop halts new flow arrivals (running flows drain). Any already-scheduled
// arrival is canceled, so FlowsStarted is final the moment Stop returns.
func (g *Generator) Stop() { g.arrival.Stop() }

// Start begins the arrival process.
func (g *Generator) Start() { g.scheduleArrival() }

func (g *Generator) scheduleArrival() {
	if g.targetRate <= 0 {
		return
	}
	// Offered load = arrivalRate × meanBytes × 8.
	lambda := g.targetRate / (meanFileBytes * 8)
	wait := sim.Time(g.sim.Rand().ExpFloat64() / lambda * float64(sim.Time(1e9)))
	g.arrival.Arm(wait)
}

// fileSize draws a bounded Pareto file size with mean meanFileBytes.
func (g *Generator) fileSize() int {
	a := paretoAlpha // a variable: a-1 and 1/a round as float64 steps
	xm := meanFileBytes * (a - 1) / a
	u := g.sim.Rand().Float64()
	size := xm / math.Pow(1-u, 1/a)
	if size > 64<<20 {
		size = 64 << 20
	}
	if size < 1<<10 {
		size = 1 << 10
	}
	return int(size)
}

// flow is one AIMD file transfer through the bottleneck.
type flow struct {
	g         *Generator
	ctl       *cc.Reno
	remaining int // bytes not yet sent
	nextSeq   uint64
	largest   uint64 // largest acked seq
	anyAcked  bool
	inflight  map[uint64]flowPkt
	pto       *sim.Timer
	done      bool
	totalSent int
}

type flowPkt struct {
	size   int
	sentAt sim.Time
}

func (g *Generator) startFlow(size int) {
	g.stats.FlowsStarted++
	f := &flow{
		g:         g,
		ctl:       cc.NewReno(),
		remaining: size,
		inflight:  make(map[uint64]flowPkt),
	}
	f.pto = sim.NewTimer(g.sim, f.onPTO)
	f.send()
}

func (f *flow) send() {
	for f.remaining > 0 && f.ctl.CanSend(packetSize) {
		size := packetSize
		if f.remaining < size {
			size = f.remaining
		}
		f.remaining -= size
		f.transmit(f.nextSeq, size)
		f.nextSeq++
	}
	f.maybeFinish()
}

func (f *flow) transmit(seq uint64, size int) {
	now := f.g.sim.Now()
	f.ctl.OnPacketSent(now, size)
	f.inflight[seq] = flowPkt{size: size, sentAt: now}
	f.totalSent += size
	g := f.g
	g.path.Down.Send(netem.Datagram{Size: size, Deliver: func() {
		// Receiver immediately acks; the ACK crosses the uplink.
		g.path.Up.Send(netem.Datagram{Size: 40, Deliver: func() {
			f.onAck(seq)
		}})
	}})
	if !f.pto.Armed() {
		f.pto.Arm(f.ptoInterval())
	}
}

func (f *flow) ptoInterval() sim.Time {
	// Conservative: a few RTTs of this topology.
	return 4 * 2 * netem.DefaultLastMileDelay
}

func (f *flow) onAck(seq uint64) {
	now := f.g.sim.Now()
	pkt, ok := f.inflight[seq]
	if ok {
		delete(f.inflight, seq)
		f.ctl.OnAck(now, pkt.size, now-pkt.sentAt)
		f.g.stats.BytesDelivered += uint64(pkt.size)
	}
	if !f.anyAcked || seq > f.largest {
		f.largest = seq
		f.anyAcked = true
	}
	// Packet-threshold loss detection: anything 3 behind the largest acked
	// and still in flight is lost — retransmit its bytes as new data.
	newEvent := true
	//voxel:det-ok Reno's OnLoss does a clamped in-flight subtraction, which commutes, and newEvent halves cwnd once per batch whichever packet comes first
	for s, p := range f.inflight {
		if f.largest >= 3 && s <= f.largest-3 {
			delete(f.inflight, s)
			f.ctl.OnLoss(now, p.size, newEvent)
			newEvent = false
			f.g.stats.PacketsLost++
			f.remaining += p.size
		}
	}
	if len(f.inflight) == 0 {
		f.pto.Stop()
	} else {
		f.pto.Arm(f.ptoInterval())
	}
	f.send()
}

func (f *flow) onPTO() {
	if f.done {
		return
	}
	now := f.g.sim.Now()
	// Everything in flight is presumed lost.
	for s, p := range f.inflight {
		delete(f.inflight, s)
		f.remaining += p.size
		f.g.stats.PacketsLost++
	}
	f.ctl.OnRetransmissionTimeout(now)
	f.send()
	if len(f.inflight) > 0 {
		f.pto.Arm(2 * f.ptoInterval())
	}
}

func (f *flow) maybeFinish() {
	if f.done || f.remaining > 0 || len(f.inflight) > 0 {
		return
	}
	f.done = true
	f.pto.Stop()
	f.g.stats.FlowsCompleted++
}
