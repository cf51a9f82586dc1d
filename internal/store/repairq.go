package store

import (
	"container/heap"
	"sync"
)

// repairQueueLen bounds the background repair queue; requests beyond it
// are dropped (and re-found by a later scrub pass).
const repairQueueLen = 64

// repairQueue is the bounded, risk-ordered background repair queue.
// Stripes are repaired most-at-risk first: a stripe's risk is its lost
// sector count at enqueue time, so a stripe close to the code's
// coverage edge (one more failure from unrecoverable) jumps ahead of a
// stripe with a single latent error, however long the latter has been
// waiting. Ties break FIFO so equal-risk stripes cannot starve each
// other.
//
// The bound plays the same role the old channel capacity did: a full
// queue drops the request and a later scrub pass re-finds the stripe.
type repairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	items  repairHeap
	closed bool
	seq    uint64
}

// repairItem orders one request in the heap; seq is the FIFO tiebreak.
type repairItem struct {
	req repairReq
	seq uint64
}

type repairHeap []repairItem

func (h repairHeap) Len() int { return len(h) }
func (h repairHeap) Less(i, j int) bool {
	if h[i].req.risk != h[j].req.risk {
		return h[i].req.risk > h[j].req.risk // most lost sectors first
	}
	return h[i].seq < h[j].seq
}
func (h repairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *repairHeap) Push(x any)   { *h = append(*h, x.(repairItem)) }
func (h *repairHeap) Pop() (item any) { // standard container/heap tail pop
	old := *h
	n := len(old)
	item = old[n-1]
	*h = old[:n-1]
	return item
}

func newRepairQueue(capacity int) *repairQueue {
	q := &repairQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a request; false when the queue is full or closed (the
// caller drops the request, as with the old channel's default arm).
func (q *repairQueue) push(req repairReq) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.cap {
		return false
	}
	q.seq++
	heap.Push(&q.items, repairItem{req: req, seq: q.seq})
	q.cond.Signal()
	return true
}

// pop blocks until the highest-risk request is available, draining
// whatever remains after close before reporting ok=false.
func (q *repairQueue) pop() (repairReq, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return repairReq{}, false
	}
	return heap.Pop(&q.items).(repairItem).req, true
}

// close wakes every blocked pop; subsequent pushes are refused.
func (q *repairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
