package sim

// Queue is a double-ended queue over a power-of-two ring. Components use
// it for state that an event consumes in arrival order — a link's
// packets in transmission, a UE's uplink buffer, a grant backlog — so a
// pop never reallocates and a push reallocates only when the ring
// doubles. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th item from the front (0 is the front).
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *Queue[T]) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]T, max(8, 2*len(q.buf)))
	for i := range q.n {
		buf[i] = *q.At(i)
	}
	q.buf, q.head = buf, 0
}

// PushBack appends x at the back.
func (q *Queue[T]) PushBack(x T) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// PushFront inserts x at the front.
func (q *Queue[T]) PushFront(x T) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = x
	q.n++
}

// PopFront removes and returns the front item. The slot is cleared so the
// ring keeps no reference to what left it.
func (q *Queue[T]) PopFront() T {
	var zero T
	x := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}

// PopBack removes the back item.
func (q *Queue[T]) PopBack() {
	var zero T
	q.n--
	*q.At(q.n) = zero
}

// Reset empties the queue, keeping its ring.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
