package cluster

import (
	"sync"
	"time"

	"graphabcd/internal/telemetry"
)

const (
	defaultRetryBase     = 2 * time.Millisecond
	defaultRetryDeadline = 30 * time.Second
	defaultMaxUnacked    = 1024

	// maxBackoff caps a batch's doubling retransmission interval, unless
	// the measured RTO is longer still.
	maxBackoff = 50 * time.Millisecond

	// The send window is delay based (TCP Vegas): queued estimates how
	// many of the node's own batches wait in queues beyond the path's
	// floor delay. The window grows while queued < vegasAlpha and
	// shrinks while queued > vegasBeta; in between it holds.
	vegasAlpha    = 8
	vegasBeta     = 24
	initialWindow = 8
	minWindow     = 4

	// minRTTBucket sizes the windowed floor-delay estimate: the minimum
	// over the current and the previous bucket of samples. A lifetime
	// minimum latches onto one lucky sample and then reads every later
	// RTT as queueing, starving the window.
	minRTTBucket = 128
)

// Pending is one sent-but-unacknowledged batch in a node's at-least-once
// table. The engine owns the table and its lock; Flow sets the timers.
type Pending struct {
	To       int
	Env      Envelope
	Attempts int // retransmissions so far

	lastSent  time.Time // the latest transmission
	nextRetry time.Time
	deadline  time.Time
}

// Verdict is Flow.Due's decision about one unacked batch.
type Verdict int

const (
	Wait       Verdict = iota // not due yet
	Retransmit                // due: send the envelope again
	Expired                   // undelivered past the retry deadline
)

// rttEstimator is the RFC 6298 smoothed round-trip estimator.
type rttEstimator struct {
	srtt, rttvar time.Duration
	// acked is the latest transmission time known delivered: a batch
	// last sent well before it was overtaken, so it is lost.
	acked time.Time
	// probeAt is the last first retransmission a timer drove. A stall
	// delays every outstanding batch at once; re-sending them all when
	// their timers fire together would flood the path just as it
	// recovers, so timers send a batch's first retransmission at most one
	// per RTO per destination, and the overtaken rule re-sends the rest
	// once a probe's ack shows they were lost. Later retransmissions of a
	// batch follow its own doubling timer.
	probeAt time.Time
	// shift is the RTO backoff kept for new batches after a timeout until
	// a valid sample arrives (RFC 6298 §5.5). Without it, Karn's rule can
	// starve the estimator: if every batch times out before its ack,
	// none of them yields a sample and the RTO never rises.
	shift int
}

func (e *rttEstimator) sample(r time.Duration) {
	r = max(r, time.Nanosecond) // srtt == 0 means "no sample yet"
	if e.srtt == 0 {
		e.srtt, e.rttvar = r, r/2
	} else {
		e.rttvar = (3*e.rttvar + (e.srtt - r).Abs()) / 4
		e.srtt = (7*e.srtt + r) / 8
	}
	e.shift = 0
}

// rto is the unbacked-off timeout: srtt + 4·rttvar, never below floor.
func (e *rttEstimator) rto(floor time.Duration) time.Duration {
	return max(floor, e.srtt+4*e.rttvar)
}

// backoff doubles rto per shift, capped at max(maxBackoff, rto).
func backoff(rto time.Duration, shift int) time.Duration {
	limit := max(maxBackoff, rto)
	if shift >= 32 || rto > limit>>shift {
		return limit
	}
	return rto << shift
}

// Flow is one node's measured flow control for the at-least-once data
// plane, shared by both node engines (the in-process cluster and the
// -listen/-join dist node). The time from a batch's send to its first ack
// is a round-trip sample; Flow turns the samples into two controls:
//
//   - a retransmission timeout per destination (RFC 6298: srtt + 4·rttvar,
//     never below RetryBase, no sample from a retransmitted batch by
//     Karn's rule), from which a batch's retries double, capped at
//     max(50ms, RTO); a batch overtaken by a later acked one is re-sent
//     without waiting for its timer (RACK), and timers send at most one
//     first retransmission per destination per RTO;
//   - a delay-based send window per node, clamped to [4, MaxUnacked]. It
//     rides the MaxUnacked token channel: the window shrinks by parking
//     tokens in the channel instead of returning them on ack, and grows
//     by returning parked tokens, so senders still just block on one
//     buffered channel. The controller sizes the batches in the pipe; a
//     retransmitted batch is presumed lost and no longer counts against
//     it (the window widens by one until that batch settles), so random
//     loss does not starve the pipe. MaxUnacked stays the hard cap on the
//     unacked table either way.
//
// With MaxUnacked negative there is no window and Flow only times
// retransmissions.
type Flow struct {
	floor    time.Duration
	deadline time.Duration
	window   chan struct{} // one token per unacked batch plus the parked ones; nil when unbounded

	mu              sync.Mutex
	dest            []rttEstimator // per destination node: the RTO
	all             rttEstimator   // every destination: the window's delay signal
	minCur, minPrev time.Duration  // windowed floor delay; 0 = no sample
	minN            int            // samples in the current bucket
	cwnd            float64
	slowStart       bool
	lost            int // unacked batches retransmitted at least once
	parked          int // tokens held in window to shrink it below its capacity
}

// NewFlow builds the flow control of one node in a cluster of nodes
// nodes. retryBase, retryDeadline and maxUnacked are the Config fields of
// the same names, zero values taking their defaults.
func NewFlow(nodes int, retryBase, retryDeadline time.Duration, maxUnacked int) *Flow {
	if retryBase == 0 {
		retryBase = defaultRetryBase
	}
	if retryDeadline == 0 {
		retryDeadline = defaultRetryDeadline
	}
	if maxUnacked == 0 {
		maxUnacked = defaultMaxUnacked
	}
	f := &Flow{
		floor:     retryBase,
		deadline:  retryDeadline,
		dest:      make([]rttEstimator, nodes),
		slowStart: true,
	}
	if maxUnacked > 0 {
		f.window = make(chan struct{}, maxUnacked)
		f.cwnd = float64(min(initialWindow, maxUnacked))
		f.parked = maxUnacked - int(f.cwnd)
		for i := 0; i < f.parked; i++ {
			f.window <- struct{}{}
		}
	}
	return f
}

// RetryTick is the period at which an engine's retry loop should scan
// its unacked table now: a quarter of the RTO floor, or one smoothed
// round trip when that is shorter — the overtaken rule can call a batch
// lost one round trip after it was sent, and a coarser scan would leave
// the lost batch holding the window longer — but at least 200µs.
func (f *Flow) RetryTick() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	tick := f.floor / 4
	if f.all.srtt > 0 {
		tick = min(tick, f.all.srtt)
	}
	return max(tick, 200*time.Microsecond)
}

// Acquire takes a window token for one new batch, blocking while the
// window is full. It reports false when stop closes first.
func (f *Flow) Acquire(stop <-chan struct{}) bool {
	if f.window == nil {
		return true
	}
	select {
	case f.window <- struct{}{}: //abcdlint:ignore hotpath -- flow control: one channel op per batch, amortized over BatchSize slot updates
		return true
	case <-stop:
		return false
	}
}

// release returns k window tokens. The channel holds one token per
// unacked batch plus the parked ones, so the non-blocking receive never
// misses; it only keeps a bookkeeping bug from turning into a hang.
func (f *Flow) release(k int) {
	if f.window == nil {
		return
	}
	for i := 0; i < k; i++ {
		select {
		case <-f.window:
		default:
			return
		}
	}
}

// Track builds the unacked entry for a batch just sent to node to: its
// first retransmission falls due one RTO after the envelope's send time.
func (f *Flow) Track(to int, e Envelope) *Pending {
	f.mu.Lock() //abcdlint:ignore hotpath -- one lock per batch, amortized over BatchSize slot updates
	d := &f.dest[to]
	rto := backoff(d.rto(f.floor), d.shift)
	f.mu.Unlock()    //abcdlint:ignore hotpath -- see the matching Lock above
	return &Pending{ //abcdlint:ignore hotalloc,hotpath -- one entry per batch, amortized over BatchSize slot updates
		To:        to,
		Env:       e,
		lastSent:  e.sentAt,
		nextRetry: e.sentAt.Add(rto),
		deadline:  e.sentAt.Add(f.deadline),
	}
}

// Due decides p's fate at now; the engine calls it under its unacked
// lock. A batch is lost, and due at once, when a transmission to the same
// destination made over a quarter round trip after p's latest one has
// already been acked and p has been out for a round trip (RACK, RFC
// 8985): a lost batch is re-sent about one round trip after it was sent,
// not one RTO. Otherwise it is due when its timer fires, though first
// retransmissions go out at most one per destination per RTO (see
// probeAt). A Retransmit verdict has already counted the attempt and
// scheduled the next timer, doubling from the destination's RTO; a timer
// retransmission also backs off the RTO of new batches to that
// destination until a valid sample arrives.
func (f *Flow) Due(p *Pending, now time.Time) Verdict {
	v, unpark := f.due(p, now)
	f.release(unpark)
	return v
}

// due is Due under mu; it returns the verdict and the tokens to release.
func (f *Flow) due(p *Pending, now time.Time) (Verdict, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := &f.dest[p.To]
	timedOut := !now.Before(p.nextRetry)
	if timedOut && now.After(p.deadline) {
		return Expired, 0
	}
	lost := d.acked.Sub(p.lastSent) > d.srtt/4 && now.Sub(p.lastSent) > d.srtt
	timer := !lost && timedOut && (p.Attempts > 0 || now.Sub(d.probeAt) >= d.rto(f.floor))
	if !lost && !timer {
		return Wait, 0
	}
	if timer {
		if p.Attempts == 0 {
			d.probeAt = now
		}
		d.shift = max(d.shift, p.Attempts+1)
	}
	p.Attempts++
	p.lastSent = now
	p.nextRetry = now.Add(backoff(d.rto(f.floor), p.Attempts))
	if p.Attempts > 1 {
		return Retransmit, 0
	}
	f.lost++
	return Retransmit, f.rebalance(0)
}

// Ack settles p on its first acknowledgment at now: a batch never
// retransmitted yields an RTT sample (Karn's rule) that updates the RTO
// and steers the window, and p's window token goes back — or stays
// parked, when the window is shrinking. The engine calls Ack after
// removing p from its unacked table, outside that table's lock.
func (f *Flow) Ack(p *Pending, now time.Time) {
	f.mu.Lock()
	d := &f.dest[p.To]
	delivered := p.lastSent
	if now.Sub(p.lastSent) < f.minRTT() {
		// Faster than any round trip: the ack answers an earlier
		// transmission, and only the first is certain to be older.
		delivered = p.Env.sentAt
	}
	if delivered.After(d.acked) {
		d.acked = delivered
	}
	if p.Attempts == 0 {
		r := now.Sub(p.Env.sentAt)
		d.sample(r)
		f.all.sample(r)
		f.noteMin(r)
		f.steer()
	} else {
		f.lost--
	}
	n := f.rebalance(1)
	f.mu.Unlock()
	f.release(n)
}

// Drop returns the window token of p, retired without an ack: abandoned
// at a dead node, expired, or orphaned by failover.
func (f *Flow) Drop(p *Pending) {
	f.mu.Lock()
	if p.Attempts > 0 {
		f.lost--
	}
	n := f.rebalance(1)
	f.mu.Unlock()
	f.release(n)
}

// noteMin folds one sample into the windowed floor delay. Caller holds mu.
func (f *Flow) noteMin(r time.Duration) {
	if f.minN == minRTTBucket {
		f.minPrev, f.minCur, f.minN = f.minCur, 0, 0
	}
	if f.minCur == 0 || r < f.minCur {
		f.minCur = r
	}
	f.minN++
}

func (f *Flow) minRTT() time.Duration {
	if f.minPrev != 0 && f.minPrev < f.minCur {
		return f.minPrev
	}
	return f.minCur
}

// steer moves cwnd by one Vegas step for one fresh sample. Caller holds
// mu.
func (f *Flow) steer() {
	if f.window == nil {
		return
	}
	queued := f.cwnd * (1 - float64(f.minRTT())/float64(f.all.srtt))
	switch {
	case f.slowStart && queued < vegasAlpha:
		f.cwnd++ // doubles per round trip
	case f.slowStart:
		f.slowStart = false
	case queued < vegasAlpha:
		f.cwnd += 1 / f.cwnd // about one batch per round trip
	case queued > vegasBeta:
		f.cwnd -= 1 / f.cwnd
	}
	size := cap(f.window)
	f.cwnd = min(max(f.cwnd, float64(min(minWindow, size))), float64(size))
}

// rebalance moves parked toward its target — the capacity minus cwnd and
// the lost allowance — given freed tokens the caller is handing back, and
// returns how many tokens to release. Parking only ever keeps a freed
// token; it never takes one from a sender. Caller holds mu.
func (f *Flow) rebalance(freed int) int {
	if f.window == nil {
		return 0
	}
	size := cap(f.window)
	want := size - min(size, int(f.cwnd)+f.lost)
	if f.parked < want {
		keep := min(freed, want-f.parked)
		f.parked += keep
		return freed - keep
	}
	unpark := f.parked - want
	f.parked = want
	return freed + unpark
}

// Window is the current send window in batches; 0 means unbounded.
func (f *Flow) Window() int {
	if f.window == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return cap(f.window) - f.parked
}

// SRTT is the smoothed round trip over every destination; 0 before the
// first sample.
func (f *Flow) SRTT() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.all.srtt
}

// RTO is the current retransmission timeout toward the slowest
// destination, backoff included.
func (f *Flow) RTO() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	rto := f.floor
	for i := range f.dest {
		rto = max(rto, backoff(f.dest[i].rto(f.floor), f.dest[i].shift))
	}
	return rto
}

// RegisterGauges installs the live send_window_batches (bounded windows
// only), rtt_smoothed_seconds and rto_seconds gauges on reg.
func (f *Flow) RegisterGauges(reg *telemetry.Registry) {
	if f.window != nil {
		reg.RegisterGauge("send_window_batches", func() float64 { return float64(f.Window()) })
	}
	reg.RegisterGauge("rtt_smoothed_seconds", func() float64 { return f.SRTT().Seconds() })
	reg.RegisterGauge("rto_seconds", func() float64 { return f.RTO().Seconds() })
}
