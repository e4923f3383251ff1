package sim

// The pre-wheel binary-heap scheduler, preserved as the reference
// implementation: its scheduling is the old code verbatim, and its run loop
// carries the same event budget as the wheel's. The differential tests drive
// it and the wheel with identical scripts and assert identical execution
// traces, and the kernel benchmarks use it as the before side of
// before/after numbers. It exists only in test builds.

import (
	"container/heap"
	"fmt"
	"math"
)

type refEvent struct {
	At  Time
	Fn  func()
	seq uint64
	idx int // heap index; -1 once popped or canceled
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refEventHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

type refSim struct {
	now   Time
	queue refEventHeap
	seq   uint64
	nexec uint64
	free  []*refEvent
}

func newRefSim() *refSim { return &refSim{} }

func (s *refSim) Now() Time        { return s.now }
func (s *refSim) Executed() uint64 { return s.nexec }
func (s *refSim) Pending() int     { return len(s.queue) }

func (s *refSim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.at(s.now+delay, fn)
}

func (s *refSim) at(t Time, fn func()) *refEvent {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *refEvent
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.At, e.Fn, e.seq = t, fn, s.seq
	} else {
		e = &refEvent{At: t, Fn: fn, seq: s.seq}
	}
	heap.Push(&s.queue, e)
	return e
}

func (s *refSim) cancel(e *refEvent) {
	if e == nil || e.idx < 0 {
		return
	}
	heap.Remove(&s.queue, e.idx)
	e.Fn = nil
	e.idx = -1
	s.free = append(s.free, e)
}

func (s *refSim) reschedule(e *refEvent, t Time) {
	if e == nil || e.Fn == nil || e.idx < 0 {
		return
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.At = t
	e.seq = s.seq
	heap.Fix(&s.queue, e.idx)
}

func (s *refSim) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*refEvent)
	if e.At < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", e.At, s.now))
	}
	s.now = e.At
	fn := e.Fn
	e.Fn = nil
	s.nexec++
	fn()
	s.free = append(s.free, e)
	return true
}

func (s *refSim) Run() {
	for s.step() {
	}
}

func (s *refSim) RunUntil(deadline Time) { s.RunUntilBudget(deadline, math.MaxUint64) }

func (s *refSim) RunUntilBudget(deadline Time, budget uint64) bool {
	for ; len(s.queue) > 0 && s.queue[0].At <= deadline; budget-- {
		if budget == 0 {
			return true
		}
		s.step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return false
}
