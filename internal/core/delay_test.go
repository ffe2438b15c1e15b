package core

import (
	"sync/atomic"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/sched"
)

func claimInto(t *testing.T, st *sched.State, w *claimWindow, b int) {
	t.Helper()
	if !st.Claim(b) {
		t.Fatalf("claim of block %d refused", b)
	}
	w.claimed(b)
}

func TestClaimWindowWaitsForOldestInFlight(t *testing.T) {
	st := sched.NewState(4)
	st.ActivateAll(1)
	w := newClaimWindow(3, 4)
	for b := 0; b < 3; b++ {
		if w.full(st) {
			t.Fatalf("window full after %d claims, want room for 3", b)
		}
		claimInto(t, st, w, b)
	}
	if !w.full(st) {
		t.Fatal("3 claims past the oldest in flight: window must be full")
	}
	st.Done(1) // a younger block finishing frees nothing
	if !w.full(st) {
		t.Fatal("window freed while its oldest block is still in flight")
	}
	st.Done(0)
	if w.full(st) {
		t.Fatal("oldest block finished: window must have room")
	}
	claimInto(t, st, w, 3)
	claimInto(t, st, w, 0)
	if !w.full(st) {
		t.Fatal("claims 3..5 past block 2's claim: window must be full")
	}
	st.Done(2)
	if w.full(st) {
		t.Fatal("block 2 finished: window must have room")
	}
}

// A finished block that is claimed again must not pin the window at its
// old claim.
func TestClaimWindowRetiresReclaimedBlock(t *testing.T) {
	st := sched.NewState(2)
	st.ActivateAll(1)
	w := newClaimWindow(2, 2)
	claimInto(t, st, w, 0)
	st.Done(0)
	st.Activate(0, 1)
	claimInto(t, st, w, 0)
	if w.full(st) {
		t.Fatal("stale entry of a re-claimed block kept the window full")
	}
}

// A worker that stalls while holding a block must not let the others run
// a whole graph's worth of updates ahead on its stale value: the run stays
// within a small factor of the undisturbed epochs and still converges to
// the reference.
func TestStalledWorkerKeepsDelayBounded(t *testing.T) {
	g := testGraph(t)
	base := runPR(t, g, Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic,
		NumPEs: 1, NumScatter: 1, Epsilon: 1e-12})
	var gathers atomic.Int64
	res := runPR(t, g, Config{BlockSize: 64, Mode: Async, Policy: sched.Cyclic,
		NumPEs: 4, NumScatter: 2, Epsilon: 1e-12,
		StallHook: func(stage string) {
			if stage == "gather" && gathers.Add(1)%16 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
		}})
	if !res.Stats.Converged {
		t.Fatal("stalled run did not converge")
	}
	if res.Stats.Epochs > 1.5*base.Stats.Epochs {
		t.Fatalf("stalled run took %.2f epochs, undisturbed %.2f: delay not bounded",
			res.Stats.Epochs, base.Stats.Epochs)
	}
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	if d := maxAbsDiff(res.Values, want); d > 1e-7 {
		t.Fatalf("stalled result off by %g", d)
	}
}
