package quic

// sentQueue tracks ack-eliciting packets in flight, ordered by packet
// number. Packet numbers are assigned monotonically, so insertion is an
// append and every consumer walks the queue in ascending packet-number
// order — ACK processing and loss detection are deterministic by
// construction, with no map iteration anywhere on the hot path.
//
// The queue is a slice with an explicit live-window start: removals from
// the front advance head instead of copying the tail, and the dead prefix
// is compacted away once it dominates the backing array.
type sentQueue struct {
	pk   []*sentPacket // pk[head:] are in flight, ascending by pn
	head int
}

// push appends a packet; sp.pn must exceed every tracked packet number.
func (q *sentQueue) push(sp *sentPacket) { q.pk = append(q.pk, sp) }

// size returns the number of packets in flight.
func (q *sentQueue) size() int { return len(q.pk) - q.head }

// empty reports whether nothing is in flight.
func (q *sentQueue) empty() bool { return q.size() == 0 }

// front returns the oldest in-flight packet; nil when empty.
func (q *sentQueue) front() *sentPacket {
	if q.empty() {
		return nil
	}
	return q.pk[q.head]
}

// dropPrefix removes the k oldest packets.
func (q *sentQueue) dropPrefix(k int) {
	for i := q.head; i < q.head+k; i++ {
		q.pk[i] = nil
	}
	q.head += k
	q.shrink()
}

// reset empties the queue (the packets themselves are the caller's to
// release).
func (q *sentQueue) reset() {
	for i := q.head; i < len(q.pk); i++ {
		q.pk[i] = nil
	}
	q.pk = q.pk[:0]
	q.head = 0
}

// shrink reclaims the dead prefix when it dominates the backing array, so
// a long-lived connection's queue memory stays proportional to its window.
func (q *sentQueue) shrink() {
	if q.head == len(q.pk) {
		q.pk = q.pk[:0]
		q.head = 0
		return
	}
	if q.head > 32 && q.head*2 >= len(q.pk) {
		n := copy(q.pk, q.pk[q.head:])
		clearTail := q.pk[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		q.pk = q.pk[:n]
		q.head = 0
	}
}

// fifo is a queue over one reused backing array: pop advances a head index
// (re-slicing the front away makes every later append reallocate) and the
// array rewinds whenever the queue drains.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int    { return len(q.items) - q.head }
func (q *fifo[T]) live() []T   { return q.items[q.head:] }
func (q *fifo[T]) push(v ...T) { q.items = append(q.items, v...) }
func (q *fifo[T]) front() *T   { return &q.items[q.head] }

func (q *fifo[T]) pop() {
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
