package sim

// Kernel benchmarks, each run against both the timing wheel ("wheel") and
// the preserved binary-heap reference ("heap") through the same generic
// driver, so before/after numbers regenerate from a single run. The swarm
// macro-benchmark models the event mix of a 512-session experiment —
// paced sends, delayed ACKs, and a PTO timer re-armed on every packet and
// every ACK — and reports throughput via Sim.Executed as events/sec.

import (
	"testing"
	"time"
)

// xorshift is a tiny deterministic generator for benchmark jitter; the
// simulator's own rand.Rand is not used so both kernels see identical
// schedules without sharing state.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// benchChurn measures steady-state schedule+fire throughput with a pool of
// ~4096 pending events at randomized offsets (50µs–5ms): every fire
// schedules one replacement.
func benchChurn[E any](b *testing.B, k kernel[E]) {
	const pool = 4096
	rng := xorshift(0x9E3779B97F4A7C15)
	remaining := b.N
	var self func()
	self = func() {
		if remaining > 0 {
			remaining--
			k.Schedule(Time(50_000+rng.next()%5_000_000), self)
		}
	}
	seed := pool
	if seed > b.N {
		seed = b.N
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < seed; i++ {
		remaining--
		k.Schedule(Time(50_000+rng.next()%5_000_000), self)
	}
	k.Run()
}

func BenchmarkKernelChurn(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchChurn[*event](b, New(1)) })
	b.Run("heap", func(b *testing.B) { benchChurn[*refEvent](b, newRefSim()) })
}

// benchRearmStorm measures the PTO pattern: 512 armed timers, each op
// cancels one and re-arms it ~100ms out (the deadline almost never
// fires). Lazy cancellation makes both halves O(1) on the wheel; the heap
// pays two O(log n) fixups. Time advances every 256 ops so tombstones
// drain at a realistic rate.
func benchRearmStorm[E any](b *testing.B, k kernel[E]) {
	const timers = 512
	nop := func() {}
	evs := make([]E, timers)
	for i := range evs {
		evs[i] = k.at(100*time.Millisecond+Time(i), nop)
	}
	rng := xorshift(0xD1B54A32D192ED03)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n & (timers - 1)
		k.cancel(evs[i])
		evs[i] = k.at(k.Now()+100*time.Millisecond+Time(rng.next()%50_000), nop)
		if n&255 == 255 {
			k.RunUntil(k.Now() + 5*time.Millisecond)
		}
	}
}

func BenchmarkKernelRearmStorm(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchRearmStorm[*event](b, New(1)) })
	b.Run("heap", func(b *testing.B) { benchRearmStorm[*refEvent](b, newRefSim()) })
}

// benchCancel measures schedule-then-cancel pairs over a standing pool of
// 2048 pending events, the hot pattern of deadline guards that nearly
// always disarm.
func benchCancel[E any](b *testing.B, k kernel[E]) {
	nop := func() {}
	for i := 0; i < 2048; i++ {
		k.Schedule(Time(i+1)*50*time.Microsecond, nop)
	}
	rng := xorshift(0xA0761D6478BD642F)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k.cancel(k.at(k.Now()+Time(10_000+rng.next()%10_000_000), nop))
		if n&1023 == 1023 {
			k.RunUntil(k.Now() + time.Millisecond)
		}
	}
}

func BenchmarkKernelCancel(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchCancel[*event](b, New(1)) })
	b.Run("heap", func(b *testing.B) { benchCancel[*refEvent](b, newRefSim()) })
}

// swarmSession is one synthetic streaming session in the macro-benchmark:
// a paced sender whose every packet re-arms a PTO deadline and schedules a
// delayed ACK, which re-arms the PTO again — the dominant event mix of a
// real swarm trial (QUIC* pacing + PTO + netem delivery callbacks).
type swarmSession[E any] struct {
	k      kernel[E]
	rng    xorshift
	pto    E
	armed  bool
	left   int
	onSend func()
	onAck  func()
	onPTO  func()
}

func newSwarmSession[E any](k kernel[E], seed uint64, packets int) *swarmSession[E] {
	s := &swarmSession[E]{k: k, rng: xorshift(seed | 1), left: packets}
	s.onSend = func() { s.send() }
	s.onAck = func() { s.ack() }
	s.onPTO = func() { s.probe() }
	return s
}

func (s *swarmSession[E]) rearmPTO(d Time) {
	if s.armed {
		// Same call both kernels make in production via Timer.Arm: the heap
		// pays an O(log n) Fix, the wheel defers the standing entry in O(1).
		s.k.reschedule(s.pto, s.k.Now()+d)
		return
	}
	s.pto = s.k.at(s.k.Now()+d, s.onPTO)
	s.armed = true
}

func (s *swarmSession[E]) send() {
	if s.left == 0 {
		return
	}
	s.left--
	s.rearmPTO(100*time.Millisecond + Time(s.rng.next()%uint64(10*time.Millisecond)))
	// Delivery + delayed ACK lands 15–60ms out.
	s.k.Schedule(15*time.Millisecond+Time(s.rng.next()%uint64(45*time.Millisecond)), s.onAck)
	if s.left > 0 {
		// Pacing: next send 0.5–4ms out.
		s.k.Schedule(500*time.Microsecond+Time(s.rng.next()%uint64(3500*time.Microsecond)), s.onSend)
	}
}

func (s *swarmSession[E]) ack() {
	if s.left > 0 || s.armed {
		s.rearmPTO(100*time.Millisecond + Time(s.rng.next()%uint64(10*time.Millisecond)))
	}
	if s.left == 0 && s.armed {
		// Stream drained: let the final deadline lapse quietly.
		s.k.cancel(s.pto)
		s.armed = false
	}
}

func (s *swarmSession[E]) probe() {
	s.armed = false
	if s.left > 0 {
		s.rearmPTO(200 * time.Millisecond)
	}
}

// benchSwarmMacro runs 512 concurrent synthetic sessions through one
// kernel and reports events/sec measured via Executed(). b.N is the total
// packet budget across the swarm.
func benchSwarmMacro[E any](b *testing.B, k kernel[E]) {
	const sessions = 512
	perSession := b.N / sessions
	extra := b.N % sessions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < sessions; i++ {
		packets := perSession
		if i < extra {
			packets++
		}
		if packets == 0 {
			continue
		}
		s := newSwarmSession(k, uint64(i)*0x9E3779B9, packets)
		k.Schedule(Time(i)*7*time.Microsecond, s.onSend) // staggered joins
	}
	k.Run()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(k.Executed())/sec, "events/sec")
	}
}

func BenchmarkSwarmMacro512(b *testing.B) {
	b.Run("wheel", func(b *testing.B) { benchSwarmMacro[*event](b, New(1)) })
	b.Run("heap", func(b *testing.B) { benchSwarmMacro[*refEvent](b, newRefSim()) })
}
