package cluster

import (
	"fmt"

	"graphabcd/internal/telemetry"
)

// Control is the live handle Config.OnStart receives once the run's
// workers are started. It lets tests, chaos harnesses, and operators
// inject node failures into a running cluster. All methods are safe for
// concurrent use and safe to call after the run has finished (they
// become errors or no-ops).
type Control interface {
	// FailNode kills node id mid-run: its workers and applier stop, its
	// unacked outgoing batches are abandoned, its blocks are reassigned
	// to the surviving nodes, and the orphaned edge-cache state is
	// rebuilt by re-scattering current owner values. The last live node
	// cannot be failed.
	FailNode(id int) error
	// LiveNodes returns the number of nodes still alive.
	LiveNodes() int
	// BatchesSent returns the number of logical batches created so far,
	// a convenient progress probe for scheduling mid-run faults.
	BatchesSent() int64
}

func (c *clusterRun[V, M]) LiveNodes() int     { return int(c.liveNodes.Load()) }
func (c *clusterRun[V, M]) BatchesSent() int64 { return c.tel.Total(telemetry.CtrBatchesSent) }

// FailNode implements Control. The recovery argument mirrors the paper's
// correctness story: vertex values are the ground truth of a state-based
// program, so every cache slot and every lost in-flight batch can be
// reconstructed by re-scattering ScatterValue(src, values[src]) — the
// same idempotent write the normal path performs. The rebuild runs with
// the world paused (workers parked at the fence, appliers parked at an
// envelope boundary) and fences the rebuilt slots with a fresh write
// stamp so stale in-flight envelopes that surface later are discarded.
func (c *clusterRun[V, M]) FailNode(id int) error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cluster: FailNode(%d): no such node", id)
	}
	n := c.nodes[id]
	if n.failed.Load() {
		return fmt.Errorf("cluster: FailNode(%d): node already failed", id)
	}
	if c.liveNodes.Load() <= 1 {
		return fmt.Errorf("cluster: FailNode(%d): cannot fail the last live node", id)
	}
	if c.stopping.Load() {
		return fmt.Errorf("cluster: FailNode(%d): run already stopping", id)
	}

	// Gate quiescence for the whole recovery: the termination detector
	// must not accept a snapshot taken between "batches to the dead node
	// abandoned" and "compensating re-activations registered".
	c.recovering.Add(1)
	defer c.recovering.Add(-1)
	c.sh0.Add(telemetry.CtrNodesFailed, 1)
	c.liveNodes.Add(-1)

	// 1. Kill: the node's workers observe the flag and exit; its applier
	// switches to discard mode so senders never block on the dead inbox.
	n.failed.Store(true)
	close(n.down)

	// 2. Pause the world. The fence write lock waits for every worker's
	// in-progress claim-process-done iteration (so no scatter is mid-
	// flight and ownership reads are stable); the appliers' per-envelope
	// locks park them at an envelope boundary (so no cache slot is being
	// written while we rebuild it).
	c.fence.Lock()
	defer c.fence.Unlock()
	for _, m := range c.nodes {
		m.applyMu.Lock()
		defer m.applyMu.Unlock()
	}

	// 3. Abandon the dead node's own unacked batches: nobody will retry
	// them. Their payloads are re-derived in step 5b from values[].
	n.unackedMu.Lock()
	orphans := len(n.unacked)
	for bid, p := range n.unacked {
		delete(n.unacked, bid)
		n.flow.Drop(p)
	}
	n.unackedMu.Unlock()
	if orphans > 0 {
		c.sh0.Add(telemetry.CtrBatchesDropped, int64(orphans))
		c.inflight.Add(int64(-orphans))
	}

	// 4. Reassign the dead node's blocks round-robin across survivors.
	survivors := make([]*node[V, M], 0, len(c.nodes)-1)
	for _, m := range c.nodes {
		if !m.failed.Load() {
			survivors = append(survivors, m)
		}
	}
	adopted := make(map[int]*node[V, M])
	next := 0
	for b := 0; b < c.part.NumBlocks(); b++ {
		if c.owner(b) != id {
			continue
		}
		heir := survivors[next%len(survivors)]
		next++
		c.blockOwner[b].Store(int32(heir.id))
		adopted[b] = heir
	}

	// 5. Rebuild, fencing every rewritten slot with a stamp newer than
	// any envelope created before this pause (retries keep their
	// original id, so late redeliveries lose against the fence).
	fenceSeq := c.seq.Add(1)
	buf := make([]uint64, max(c.values.Words(), 2))
	var val V

	// 5a. In-edge slots of adopted blocks: batches in flight *to* the
	// dead node died with its inbox; recompute every slot from the
	// source vertex's current value and re-activate the block on its
	// heir so the refreshed inputs are re-processed.
	for b, heir := range adopted {
		lo, hi := c.part.VertexRange(b)
		for v := lo; v < hi; v++ {
			for s := c.g.InOffset(v); s < c.g.InOffset(v+1); s++ {
				src := c.g.InSrc(s)
				c.values.LoadBuf(int64(src), &val, buf)
				c.cache.StoreBuf(s, c.prog.ScatterValue(src, val, c.g), buf)
				c.slotSeq[s].Store(fenceSeq)
			}
		}
		heir.st.Activate(b, 1)
	}

	// 5b. Out-edges of the dead node's vertices: batches in flight
	// *from* the dead node (step 3) carried scatter images of these
	// vertices; rewrite every out-slot from the current value and
	// re-activate the destination blocks on their owners.
	for b := range adopted {
		lo, hi := c.part.VertexRange(b)
		for v := lo; v < hi; v++ {
			c.values.LoadBuf(int64(v), &val, buf)
			sval := c.prog.ScatterValue(uint32(v), val, c.g)
			for i := c.g.OutOffset(v); i < c.g.OutOffset(v+1); i++ {
				slot := c.g.OutPos(i)
				c.cache.StoreBuf(slot, sval, buf)
				c.slotSeq[slot].Store(fenceSeq)
				db := c.part.BlockOf(c.g.OutDst(i))
				c.nodes[c.owner(db)].st.Activate(db, 1)
			}
		}
	}
	return nil
}
