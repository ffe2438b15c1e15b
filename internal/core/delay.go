package core

import "graphabcd/internal/sched"

// claimWindow enforces the bounded delay that asynchronous BCD's
// convergence guarantee assumes (Sec. III-D): the async scheduler issues
// no claim more than tau claims after the oldest block still in flight.
//
// The task queues bound staleness only while every worker keeps running.
// A worker descheduled while it holds a block (an OS preemption on a
// loaded host) freezes that block's update while the other workers keep
// sweeping the rest of the graph: they settle around its stale value and
// redo that work once it lands. On the 512-vertex R-MAT test graph on a
// loaded 2-core host this inflated the epochs to converge by up to 3x
// over an unloaded run. The window caps the work exposed to one stalled
// block at tau block runs; an unloaded run never fills it.
//
// A window is owned by the single scheduler goroutine; only the in-flight
// flags it reads are shared.
type claimWindow struct {
	// Claims are numbered from 1. ring[s%len(ring)] is the block of claim
	// s for every s in [head, next); head is the oldest claim that may
	// still be in flight.
	head, next int64
	ring       []int32
	// last[b] is the number of block b's latest claim: a ring entry for
	// a block that has since finished and been re-claimed is retired.
	last []int64
}

func newClaimWindow(tau, numBlocks int) *claimWindow {
	if tau < 1 {
		tau = 1
	}
	return &claimWindow{
		head: 1,
		next: 1,
		ring: make([]int32, tau+1),
		last: make([]int64, numBlocks),
	}
}

// full retires finished claims from the head and reports whether tau
// claims have been issued since the oldest one still in flight.
func (w *claimWindow) full(st *sched.State) bool {
	n := int64(len(w.ring))
	for w.head < w.next {
		b := w.ring[w.head%n]
		if w.last[b] == w.head && st.InFlight(int(b)) {
			break
		}
		w.head++
	}
	return w.next-w.head >= n-1
}

// claimed records that block b has just been claimed.
func (w *claimWindow) claimed(b int) {
	w.last[b] = w.next
	w.ring[w.next%int64(len(w.ring))] = int32(b)
	w.next++
}
