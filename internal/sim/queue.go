package sim

// Queue is a FIFO that reuses its storage: Pop advances a head index
// instead of reslicing, the buffer rewinds whenever the queue drains,
// and a push into a full buffer whose front half is already popped
// compacts instead of growing. A queue that cycles at steady state
// therefore allocates nothing. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head entry. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	if q.head++; q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// TakeAll empties the queue and returns its entries in order. The
// caller owns the returned slice; the queue starts over with fresh
// storage.
func (q *Queue[T]) TakeAll() []T {
	out := q.buf[q.head:]
	q.buf, q.head = nil, 0
	return out
}
