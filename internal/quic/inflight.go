package quic

// fifo is a queue over one reused backing array: removals from the front
// advance a head index instead of copying the tail (re-slicing the front
// away makes every later append reallocate), vacated slots are cleared, and
// the dead prefix is compacted away once it dominates the array. The
// connection's in-flight packets are one, ordered by packet number: numbers
// are assigned monotonically, so insertion is an append and every consumer
// walks the queue in ascending packet-number order — ACK processing and loss
// detection are deterministic by construction, with no map iteration
// anywhere on the hot path.
type fifo[T any] struct {
	items []T // items[head:] are queued, oldest first
	head  int
}

func (q *fifo[T]) len() int  { return len(q.items) - q.head }
func (q *fifo[T]) live() []T { return q.items[q.head:] }
func (q *fifo[T]) push(v T)  { q.items = append(q.items, v) }
func (q *fifo[T]) front() *T { return &q.items[q.head] }
func (q *fifo[T]) pop()      { q.dropPrefix(1) }

// dropPrefix removes the k oldest items.
func (q *fifo[T]) dropPrefix(k int) {
	var zero T
	for end := q.head + k; q.head < end; q.head++ {
		q.items[q.head] = zero
	}
	q.shrink()
}

// shrink rewinds the array when the queue drains and reclaims the dead
// prefix when it dominates, so a long-lived queue's memory stays
// proportional to what it holds.
func (q *fifo[T]) shrink() {
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
		return
	}
	if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
}
