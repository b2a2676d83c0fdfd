package sim

import (
	"math/rand"
	"testing"
)

// Queue must behave as a plain slice deque through growth and wrap.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(5); {
		case op <= 1:
			q.PushBack(i)
			ref = append(ref, i)
		case op == 2:
			q.PushFront(i)
			ref = append([]int{i}, ref...)
		case op == 3 && len(ref) > 0:
			if got := q.PopFront(); got != ref[0] {
				t.Fatalf("step %d: PopFront %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		case op == 4 && len(ref) > 0:
			q.PopBack()
			ref = ref[:len(ref)-1]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", i, q.Len(), len(ref))
		}
		if len(ref) > 0 && (*q.At(0) != ref[0] || *q.At(q.Len() - 1) != ref[len(ref)-1]) {
			t.Fatalf("step %d: ends %d..%d, want %d..%d", i, *q.At(0), *q.At(q.Len() - 1), ref[0], ref[len(ref)-1])
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len %d after Reset", q.Len())
	}
}

// A popped slot is cleared, so the ring does not keep what left it alive.
func TestQueuePopClearsSlot(t *testing.T) {
	var q Queue[*int]
	x, y := new(int), new(int)
	q.PushBack(x)
	q.PushBack(y)
	q.PopFront()
	q.PopBack()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped pointer", i)
		}
	}
}

// Steady-state push and pop reuse the ring.
func TestQueueNoAllocs(t *testing.T) {
	var q Queue[int]
	q.PushBack(1)
	q.PopFront()
	if allocs := testing.AllocsPerRun(1000, func() {
		q.PushBack(1)
		q.PushBack(2)
		q.PopFront()
		q.PopFront()
	}); allocs != 0 {
		t.Fatalf("push/pop allocates %.1f/op, want 0", allocs)
	}
}
