package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The Flow tests drive the controller with explicit timestamps — the
// envelope's send time and the ack's arrival — so every estimate and
// window step below is exact arithmetic, not a timing race.

var t0 = time.Unix(1_000_000, 0)

// send acquires a token (failing the test if the window is full) and
// tracks a batch to node to sent at t0+at.
func send(t *testing.T, f *Flow, to int, at time.Duration) *Pending {
	t.Helper()
	if !tryAcquire(f) {
		t.Fatalf("window full at %v (window %d)", at, f.Window())
	}
	return f.Track(to, NewDataEnvelope(0, 1, t0.Add(at), nil, nil, nil))
}

func tryAcquire(f *Flow) bool {
	if f.window == nil {
		return true
	}
	select {
	case f.window <- struct{}{}:
		return true
	default:
		return false
	}
}

// tokens checks the token invariant: the channel holds one token per
// outstanding batch plus the parked ones.
func tokens(t *testing.T, f *Flow, outstanding int) {
	t.Helper()
	if got, want := len(f.window), outstanding+f.parked; got != want {
		t.Fatalf("window channel holds %d tokens, want %d outstanding + %d parked", got, outstanding, f.parked)
	}
}

func ms(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestFlowRTOEstimator(t *testing.T) {
	f := NewFlow(2, time.Millisecond, 0, -1)
	if got := f.RTO(); got != time.Millisecond {
		t.Fatalf("RTO before any sample = %v, want the 1ms floor", got)
	}
	// First sample r: srtt = r, rttvar = r/2, RTO = srtt + 4·rttvar = 3r.
	p := send(t, f, 1, 0)
	f.Ack(p, t0.Add(ms(10)))
	if f.SRTT() != ms(10) || f.RTO() != ms(30) {
		t.Fatalf("after 10ms sample: srtt %v rto %v, want 10ms and 30ms", f.SRTT(), f.RTO())
	}
	// Second sample 20ms: rttvar = 3/4·5 + 1/4·|10−20| = 6.25ms,
	// srtt = 7/8·10 + 1/8·20 = 11.25ms, RTO = 11.25 + 25 = 36.25ms.
	p = send(t, f, 1, ms(100))
	f.Ack(p, t0.Add(ms(120)))
	if f.SRTT() != ms(11.25) || f.RTO() != ms(36.25) {
		t.Fatalf("after 20ms sample: srtt %v rto %v, want 11.25ms and 36.25ms", f.SRTT(), f.RTO())
	}
	// The RTO is per destination: node 0 has no sample, so a batch to it
	// falls due at the floor, one to node 1 at its own 36.25ms.
	p0, p1 := send(t, f, 0, ms(200)), send(t, f, 1, ms(200))
	if v := f.Due(p0, t0.Add(ms(201))); v != Retransmit {
		t.Fatalf("batch to unsampled node at the 1ms floor: %v, want Retransmit", v)
	}
	if v := f.Due(p1, t0.Add(ms(236))); v != Wait {
		t.Fatalf("batch to node 1 before its 36.25ms RTO: %v, want Wait", v)
	}
	if v := f.Due(p1, t0.Add(ms(236.25))); v != Retransmit {
		t.Fatalf("batch to node 1 at its RTO: %v, want Retransmit", v)
	}
}

func TestFlowKarnRule(t *testing.T) {
	f := NewFlow(2, ms(2), 0, -1)
	p := send(t, f, 1, 0)
	f.Ack(p, t0.Add(ms(1)))
	srtt := f.SRTT()
	// A retransmitted batch's ack is ambiguous — it may answer either
	// transmission — so it must not move the estimate.
	p = send(t, f, 1, ms(10))
	if v := f.Due(p, t0.Add(ms(13))); v != Retransmit { // RTO max(2ms, 1 + 4·0.5ms)
		t.Fatalf("due at the 3ms RTO: %v, want Retransmit", v)
	}
	f.Ack(p, t0.Add(ms(40)))
	if f.SRTT() != srtt {
		t.Fatalf("retransmitted batch moved srtt %v -> %v", srtt, f.SRTT())
	}
}

func TestFlowFloorAndBackoff(t *testing.T) {
	// Samples far below the floor: the RTO stays at RetryBase.
	f := NewFlow(2, ms(4), 0, -1)
	for i := 0; i < 20; i++ {
		p := send(t, f, 1, ms(float64(i)))
		f.Ack(p, t0.Add(ms(float64(i)+0.01)))
	}
	if f.RTO() != ms(4) {
		t.Fatalf("RTO %v with 10µs samples, want the 4ms floor", f.RTO())
	}
	// A lost batch: retries double from the RTO (8, 16, 32ms) and cap at
	// 50ms.
	p := send(t, f, 1, ms(100))
	at := ms(104)
	for i, gap := range []time.Duration{ms(8), ms(16), ms(32), ms(50), ms(50)} {
		if v := f.Due(p, t0.Add(at)); v != Retransmit {
			t.Fatalf("attempt %d at %v: %v, want Retransmit", i+1, at, v)
		}
		if v := f.Due(p, t0.Add(at+gap-time.Microsecond)); v != Wait {
			t.Fatalf("attempt %d: due before its %v backoff", i+1, gap)
		}
		at += gap
	}
	if p.Attempts != 5 {
		t.Fatalf("Attempts = %d, want 5", p.Attempts)
	}

	// An RTO above 50ms is its own cap: 100ms samples give RTO 300ms, and
	// the first retry waits exactly that long again, not 600ms.
	g := NewFlow(2, ms(1), 0, -1)
	q := send(t, g, 1, 0)
	g.Ack(q, t0.Add(ms(100)))
	q = send(t, g, 1, ms(1000))
	if v := g.Due(q, t0.Add(ms(1300))); v != Retransmit {
		t.Fatalf("due at the 300ms RTO: %v", v)
	}
	if v := g.Due(q, t0.Add(ms(1600)-time.Microsecond)); v != Wait {
		t.Fatal("second retry came before the max(50ms, RTO) cap")
	}
	if v := g.Due(q, t0.Add(ms(1600))); v != Retransmit {
		t.Fatalf("second retry at the cap: %v", v)
	}
}

// TestFlowBackoffCarriesOver is Karn's algorithm's second half: after a
// timeout the backed-off RTO applies to new batches until a fresh sample,
// so a path slower than the floor cannot starve the estimator.
func TestFlowBackoffCarriesOver(t *testing.T) {
	f := NewFlow(2, ms(2), 0, -1)
	p := send(t, f, 1, 0)
	f.Due(p, t0.Add(ms(2)))
	f.Due(p, t0.Add(ms(6)))
	if f.RTO() != ms(8) {
		t.Fatalf("RTO after two timeouts = %v, want 8ms", f.RTO())
	}
	q := send(t, f, 1, ms(10))
	if v := f.Due(q, t0.Add(ms(17))); v != Wait {
		t.Fatalf("new batch due before the backed-off 8ms RTO: %v", v)
	}
	// The path really takes 7ms: the new batch's ack is a valid sample
	// and resets the backoff.
	f.Ack(q, t0.Add(ms(17)))
	if want := ms(21); f.RTO() != want {
		t.Fatalf("RTO after a 7ms sample = %v, want %v", f.RTO(), want)
	}
}

// TestFlowOvertakenBatch: a batch sent well before one already acked is
// re-sent after about one round trip, long before its timer.
func TestFlowOvertakenBatch(t *testing.T) {
	f := NewFlow(2, ms(20), 0, -1)
	warm := send(t, f, 1, 0)
	f.Ack(warm, t0.Add(ms(1))) // srtt 1ms, RTO at the 20ms floor
	lost := send(t, f, 1, ms(10))
	later := send(t, f, 1, ms(10.1)) // sent less than srtt/4 after: may be reordering
	if v := f.Due(lost, t0.Add(ms(11.5))); v != Wait {
		t.Fatalf("batch due with nothing acked after it: %v", v)
	}
	f.Ack(later, t0.Add(ms(11)))
	if v := f.Due(lost, t0.Add(ms(11.5))); v != Wait {
		t.Fatalf("batch overtaken by less than srtt/4 judged lost: %v", v)
	}
	last := send(t, f, 1, ms(10.5))
	f.Ack(last, t0.Add(ms(11.5)))
	if v := f.Due(lost, t0.Add(ms(11.5))); v != Retransmit {
		t.Fatalf("overtaken batch 1.5ms after send, 20ms before its timer: %v, want Retransmit", v)
	}
	// From then on its own timer rules: no second early retry.
	if v := f.Due(lost, t0.Add(ms(12))); v != Wait {
		t.Fatalf("retransmitted batch re-sent early again: %v", v)
	}
}

func TestFlowDeadline(t *testing.T) {
	f := NewFlow(2, ms(1), ms(100), -1)
	p := send(t, f, 1, 0)
	if v := f.Due(p, t0.Add(ms(50))); v != Retransmit {
		t.Fatalf("inside the deadline: %v, want Retransmit", v)
	}
	if v := f.Due(p, t0.Add(ms(101))); v != Expired {
		t.Fatalf("past the 100ms deadline: %v, want Expired", v)
	}
}

func TestFlowWindow(t *testing.T) {
	f := NewFlow(2, ms(2), 0, 64)
	var out []*Pending
	at := time.Duration(0)
	// fill sends until the window refuses; ackOldest acks the oldest
	// outstanding batch with round trip r.
	fill := func() {
		for tryAcquire(f) {
			out = append(out, f.Track(1, NewDataEnvelope(0, 1, t0.Add(at), nil, nil, nil)))
			at += 10 * time.Microsecond
		}
		tokens(t, f, len(out))
	}
	ackOldest := func(r time.Duration) {
		p := out[0]
		out = out[1:]
		f.Ack(p, p.Env.SentAt().Add(r))
	}

	fill()
	if f.Window() != 8 || len(out) != 8 {
		t.Fatalf("initial window %d with %d sent, want 8 and 8", f.Window(), len(out))
	}

	// Slow start: every ack at the floor delay (nothing queued) grows the
	// window by one.
	for f.Window() < 60 {
		before := f.Window()
		ackOldest(ms(1))
		if f.Window() != before+1 {
			t.Fatalf("slow start grew the window %d -> %d, want +1", before, f.Window())
		}
		fill()
	}
	if !f.slowStart {
		t.Fatal("slow start ended without queueing")
	}

	// Queueing: round trips of ~10x the floor delay (one floor-delay
	// sample in 64 keeps the windowed minimum) read as ~90% of the window
	// queued. Slow start ends, and the window shrinks by parking acked
	// tokens until the estimate falls to β = 24 batches: cwnd ≈ 24/0.9.
	for i := 0; i < 3000; i++ {
		r := ms(10)
		if i%64 == 0 {
			r = ms(1)
		}
		ackOldest(r)
		fill()
	}
	if f.slowStart {
		t.Fatal("queueing never ended slow start")
	}
	if w := f.Window(); w < 24 || w > 30 {
		t.Fatalf("window %d under ~90%% queueing, want about 24/0.9", w)
	}

	// Back to the floor delay: the window grows about one batch per
	// window of acks, up to the MaxUnacked cap and no further.
	for i := 0; i < 20000; i++ {
		ackOldest(ms(1))
		fill()
	}
	if f.Window() != 64 {
		t.Fatalf("window %d with no queueing, want the MaxUnacked cap 64", f.Window())
	}

	// A cap below the initial window is the window from the start.
	g := NewFlow(2, ms(2), 0, 2)
	if g.Window() != 2 {
		t.Fatalf("MaxUnacked 2: window %d", g.Window())
	}
}

// TestFlowLostBatchFreesWindow: a batch presumed lost stops counting
// against the pipe, so one dropped batch cannot stall a full window for
// an RTO; settling it returns the window to size.
func TestFlowLostBatchFreesWindow(t *testing.T) {
	f := NewFlow(2, ms(2), 0, 64)
	var out []*Pending
	for i := 0; i < 8; i++ {
		out = append(out, send(t, f, 1, 0))
	}
	if tryAcquire(f) {
		t.Fatal("window not full")
	}
	if v := f.Due(out[0], t0.Add(ms(2))); v != Retransmit {
		t.Fatalf("due: %v", v)
	}
	if f.Window() != 9 {
		t.Fatalf("window %d with one batch presumed lost, want 8+1", f.Window())
	}
	out = append(out, send(t, f, 1, ms(2)))
	tokens(t, f, len(out))
	f.Ack(out[0], t0.Add(ms(5))) // retransmitted: no sample, allowance ends
	out = out[1:]
	if f.Window() != 8 {
		t.Fatalf("window %d after the lost batch settled, want 8", f.Window())
	}
	tokens(t, f, len(out))
	// Retiring without an ack (dead destination, failover) frees the
	// token as well.
	for _, p := range out {
		f.Drop(p)
	}
	tokens(t, f, 0)
	if f.Window() != 8 {
		t.Fatalf("window %d after drops, want 8", f.Window())
	}
}

func TestFlowUnbounded(t *testing.T) {
	f := NewFlow(2, ms(2), 0, -1)
	if f.Window() != 0 {
		t.Fatalf("unbounded window reports %d, want 0", f.Window())
	}
	stop := make(chan struct{})
	close(stop)
	var out []*Pending
	for i := 0; i < 5000; i++ {
		if !f.Acquire(nil) {
			t.Fatal("unbounded Acquire refused")
		}
		out = append(out, f.Track(1, NewDataEnvelope(0, 1, t0, nil, nil, nil)))
	}
	f.Ack(out[0], t0.Add(ms(50)))
	if f.RTO() != ms(150) {
		t.Fatalf("unbounded flow still estimates: RTO %v, want 150ms", f.RTO())
	}
	for _, p := range out[1:] {
		f.Ack(p, t0.Add(ms(50)))
	}
	// A bounded window refuses past its size once stop has closed.
	g := NewFlow(2, ms(2), 0, 3)
	for i := 0; i < 3; i++ {
		if !g.Acquire(nil) {
			t.Fatal("bounded Acquire refused inside the window")
		}
	}
	if g.Acquire(stop) {
		t.Fatal("Acquire past a 3-batch cap succeeded")
	}
}

// TestFlowConcurrent drives one Flow the way an engine does — senders
// acquiring and tracking, an acker settling, a retry scanner calling Due
// under the table lock, a few batches dropped — and checks that every
// token comes back. A leaked token would hang a sender, so each Acquire
// runs under a deadline.
func TestFlowConcurrent(t *testing.T) {
	f := NewFlow(3, 200*time.Microsecond, 0, 32)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	unacked := map[uint64]*Pending{}
	var seq atomic.Uint64
	var senders, helpers sync.WaitGroup
	for w := 0; w < 4; w++ {
		senders.Add(1)
		go func(w int) {
			defer senders.Done()
			for i := 0; i < 2000; i++ {
				if !f.Acquire(ctx.Done()) {
					t.Error("sender starved: a window token leaked")
					return
				}
				id := seq.Add(1)
				p := f.Track(1+w%2, NewDataEnvelope(0, id, time.Now(), nil, nil, nil))
				mu.Lock()
				unacked[id] = p
				mu.Unlock()
			}
		}(w)
	}
	sendersDone := make(chan struct{})
	go func() {
		senders.Wait()
		close(sendersDone)
	}()
	helpers.Add(2)
	go func() { // acker: settles (every 50th batch dropped instead)
		defer helpers.Done()
		for n := 0; ; n++ {
			var p *Pending
			mu.Lock()
			for id, q := range unacked {
				p = q
				delete(unacked, id)
				break
			}
			mu.Unlock()
			if p == nil {
				select {
				case <-sendersDone:
					return
				default:
					time.Sleep(10 * time.Microsecond)
					continue
				}
			}
			if n%50 == 0 {
				f.Drop(p)
			} else {
				f.Ack(p, time.Now())
			}
		}
	}()
	go func() { // retry scanner
		defer helpers.Done()
		for {
			select {
			case <-sendersDone:
				return
			default:
			}
			mu.Lock()
			for _, p := range unacked {
				f.Due(p, time.Now())
			}
			mu.Unlock()
			_ = f.Window()
			_ = f.RTO()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	senders.Wait()
	helpers.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.window) != f.parked || f.lost != 0 {
		t.Fatalf("all settled, but the channel holds %d tokens for %d parked (lost %d)", len(f.window), f.parked, f.lost)
	}
}

func TestFlowRetryTick(t *testing.T) {
	f := NewFlow(2, ms(20), 0, -1)
	if got := f.RetryTick(); got != ms(5) {
		t.Fatalf("tick before any sample = %v, want a quarter of the 20ms floor", got)
	}
	p := send(t, f, 1, 0)
	f.Ack(p, t0.Add(ms(1)))
	if got := f.RetryTick(); got != ms(1) {
		t.Fatalf("tick with a 1ms round trip = %v, want 1ms", got)
	}
	p = send(t, f, 1, ms(10))
	f.Ack(p, t0.Add(ms(10)+time.Microsecond))
	for i := 0; i < 100; i++ {
		p = send(t, f, 1, ms(20))
		f.Ack(p, t0.Add(ms(20)+time.Microsecond))
	}
	if got := f.RetryTick(); got != 200*time.Microsecond {
		t.Fatalf("tick with a 1µs round trip = %v, want the 200µs minimum", got)
	}
}
