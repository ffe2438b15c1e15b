package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// clusterRun is the shared state of one distributed execution.
type clusterRun[V, M any] struct {
	g    *graph.Graph
	prog bcd.Program[V, M]
	cfg  Config
	part *graph.Partition

	values *word.Array[V] // vertex values (each owned by one node)
	cache  *word.Array[V] // in-edge cache slots (owned by the dst's node)

	// slotSeq holds the write stamp of the last update applied to each
	// cache slot over the transport. Remote applies are guarded by it:
	// a retried or reordered envelope whose stamp is older than the
	// slot's is skipped, so redelivery can never regress a slot to a
	// stale value. Local scatter writes bypass the stamps — a slot's
	// writer is its source vertex's owner, so local and remote writers
	// of one slot never coexist (failover fences the handover).
	slotSeq []atomic.Uint64 //abcd:stamped

	blockOwner []atomic.Int32 // global block id -> current owner node id
	nodes      []*node[V, M]
	transport  Transport

	// fence serializes failover against normal execution: workers hold
	// the read side for each claim-process-done iteration, FailNode
	// holds the write side while it reassigns blocks and rebuilds cache
	// slots, so ownership changes are atomic w.r.t. block processing.
	fence sync.RWMutex

	// Distributed-termination accounting (see checkQuiescence). These
	// stay exact single atomics: the quiescence protocol needs a
	// linearizable counter, not the monotone-but-merged view a sharded
	// sum gives. Only the stats counters below moved into telemetry
	// shards.
	seq        atomic.Uint64 // logical batch ids / write stamps
	totalSent  atomic.Int64  // monotone count of logical batches ever created
	inflight   atomic.Int64  // batches created but neither acked nor abandoned
	recovering atomic.Int64  // FailNode calls currently rebuilding state

	// Work accounting lands in per-worker telemetry shards: shard 0
	// belongs to the run's auxiliary goroutines (retry loop, watchdog,
	// failover), shards 1..Nodes*WorkersPerNode to the workers, and the
	// last Nodes shards to the appliers (which also observe StageApply
	// batch-application latency when timing is on).
	tel    *telemetry.Registry
	shards []telemetry.Shard
	sh0    *telemetry.Shard

	liveNodes atomic.Int64

	budget    int64         // vertex-update budget from MaxEpochs
	done      chan struct{} // closed at teardown; releases appliers
	stopping  atomic.Bool
	stopped   chan struct{} // closed when stopping flips; releases blocked senders
	stopOnce  sync.Once
	converged atomic.Bool
	failure   atomic.Pointer[error]

	failMu sync.Mutex // serializes FailNode calls
}

// node is one member of the cluster.
type node[V, M any] struct {
	id     int
	st     *sched.State // indexed by GLOBAL block id; only owned blocks activate
	inbox  chan Envelope
	down   chan struct{} // closed by FailNode; applier switches to discard mode
	failed atomic.Bool

	// applyMu is held by the applier around each envelope; FailNode
	// acquires every live node's applyMu to park appliers at an
	// envelope boundary while it rebuilds cache slots.
	applyMu sync.Mutex

	// unacked holds this node's sent-but-unacknowledged batches for the
	// at-least-once retry loop.
	unackedMu sync.Mutex
	unacked   map[uint64]*Pending

	// flow times this node's retransmissions and holds its send window:
	// flush acquires a token per batch it registers, and every path that
	// retires an unacked entry (first ack, dead-destination abandon,
	// deadline failure, failover orphan sweep) returns one. Safe against
	// deadlock because acks are produced by appliers — goroutines that
	// never wait on the window.
	flow *Flow
}

// batch is a building buffer of state-based edge-cache updates destined
// for blocks of a single node; flush turns it into a data Envelope.
type batch struct {
	slots  []int64
	blocks []int32
	words  []uint64
}

func newCluster[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*clusterRun[V, M], error) {
	part, err := graph.NewPartition(g, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	nb := part.NumBlocks()
	if cfg.Nodes > nb && nb > 0 {
		// More nodes than blocks would leave zero-block nodes spinning
		// workers against a permanently empty scheduler; clamp so every
		// node owns at least one block.
		cfg.Nodes = nb
	}
	codec := prog.Codec()
	c := &clusterRun[V, M]{
		g:       g,
		prog:    prog,
		cfg:     cfg,
		part:    part,
		values:  word.NewArray(codec, g.NumVertices()),
		cache:   word.NewArray(codec, g.NumEdges()),
		slotSeq: make([]atomic.Uint64, g.NumEdges()),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	c.transport = cfg.Transport
	if c.transport == nil {
		c.transport = &directTransport{}
	}
	c.blockOwner = make([]atomic.Int32, nb)
	c.nodes = make([]*node[V, M], cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		lo, hi := i*nb/cfg.Nodes, (i+1)*nb/cfg.Nodes
		for b := lo; b < hi; b++ {
			c.blockOwner[b].Store(int32(i))
		}
		c.nodes[i] = &node[V, M]{
			id:      i,
			st:      sched.NewState(nb),
			inbox:   make(chan Envelope, 1024),
			down:    make(chan struct{}),
			unacked: make(map[uint64]*Pending),
			flow:    NewFlow(cfg.Nodes, cfg.RetryBase, cfg.RetryDeadline, cfg.MaxUnacked),
		}
	}
	c.liveNodes.Store(int64(cfg.Nodes))
	c.tel = cfg.Telemetry
	if c.tel == nil {
		c.tel = telemetry.New(telemetry.Options{})
	}
	c.shards = c.tel.Shards(1 + cfg.Nodes*cfg.WorkersPerNode + cfg.Nodes)
	c.sh0 = &c.shards[0]
	c.tel.SetVertices(g.NumVertices())
	c.tel.RegisterGauge("live_nodes", func() float64 { return float64(c.liveNodes.Load()) })
	c.tel.RegisterGauge("inflight_batches", func() float64 { return float64(c.inflight.Load()) })
	c.initArrays()
	return c, nil
}

// workerShard returns worker w of node n's telemetry shard.
func (c *clusterRun[V, M]) workerShard(nodeID, w int) *telemetry.Shard {
	return &c.shards[1+nodeID*c.cfg.WorkersPerNode+w]
}

// applierShard returns node n's applier shard.
func (c *clusterRun[V, M]) applierShard(nodeID int) *telemetry.Shard {
	return &c.shards[1+c.cfg.Nodes*c.cfg.WorkersPerNode+nodeID]
}

// vertexUpdates is the cross-shard total driving the budget checks and
// the watchdog.
func (c *clusterRun[V, M]) vertexUpdates() int64 {
	return c.tel.Total(telemetry.CtrVertexUpdates)
}

func (c *clusterRun[V, M]) owner(b int) int { return int(c.blockOwner[b].Load()) }

func (c *clusterRun[V, M]) initArrays() {
	buf := make([]uint64, c.values.Words())
	for v := 0; v < c.g.NumVertices(); v++ {
		c.values.StoreBuf(int64(v), c.prog.Init(uint32(v), c.g), buf)
		for s := c.g.InOffset(v); s < c.g.InOffset(v+1); s++ {
			c.cache.StoreBuf(s, c.prog.InitEdge(c.g.InSrc(s), c.g), buf)
		}
	}
}

// stop flips the run into teardown. stopping is the cheap poll the hot
// loops read; stopped is the same fact as a closed channel for
// goroutines parked in a select. Both are needed: when the retry loop
// exits on stopping it strands the window slots of not-yet-due unacked
// batches, so a worker blocked on a full send window (e.g. under a
// partition) must have a teardown escape — done cannot serve, it only
// closes after the workers exit.
func (c *clusterRun[V, M]) stop() {
	c.stopping.Store(true)
	c.stopOnce.Do(func() { close(c.stopped) })
}

// fail records the first failure; the coordinator stops the run and Run
// returns the error.
func (c *clusterRun[V, M]) fail(err error) {
	c.failure.CompareAndSwap(nil, &err)
	c.stop()
}

// recoverToFailure converts a worker or applier panic into a run failure
// instead of a process crash. Deferred at every goroutine boundary.
func (c *clusterRun[V, M]) recoverToFailure() {
	if r := recover(); r != nil {
		c.fail(fmt.Errorf("cluster: worker panic: %v", r))
	}
}

// run starts every node's workers and appliers, the retry and watchdog
// goroutines, the coordinator, and collects the result.
func (c *clusterRun[V, M]) run(ctx context.Context) (*Result[V], error) {
	start := time.Now()
	c.budget = 1<<63 - 1
	if c.cfg.MaxEpochs > 0 {
		c.budget = int64(c.cfg.MaxEpochs * float64(c.g.NumVertices()))
	}
	for b := 0; b < c.part.NumBlocks(); b++ {
		c.nodes[c.owner(b)].st.Activate(b, 1)
	}
	c.transport.Bind(len(c.nodes), c.deliverLocal)

	var workers, appliers, aux sync.WaitGroup
	for _, n := range c.nodes {
		appliers.Add(1)
		go func(n *node[V, M]) {
			defer appliers.Done()
			defer c.recoverToFailure()
			c.applyLoop(n, c.applierShard(n.id))
		}(n)
		for w := 0; w < c.cfg.WorkersPerNode; w++ {
			workers.Add(1)
			go func(n *node[V, M], w int) {
				defer workers.Done()
				defer c.recoverToFailure()
				c.workerLoop(n, c.workerShard(n.id, w))
			}(n, w)
		}
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		c.retryLoop(ctx)
	}()
	aux.Add(1)
	go func() {
		defer aux.Done()
		c.watchdog(ctx)
	}()
	if c.cfg.OnStart != nil {
		c.cfg.OnStart(c)
	}

	c.coordinate(ctx)
	workers.Wait()
	aux.Wait()
	// Workers and the retry loop are gone, so no new data envelopes can
	// originate. Close the transport (draining its in-flight delayed
	// deliveries) while appliers still consume, then release the appliers
	// via the done channel. Inboxes are never closed — appliers may still
	// be sending acks into each other's inboxes right up to the moment
	// they observe done, and a send racing a close would panic.
	c.transport.Close()
	close(c.done)
	appliers.Wait()

	res := &Result[V]{Values: make([]V, c.g.NumVertices())}
	buf := make([]uint64, c.values.Words())
	for v := range res.Values {
		c.values.LoadBuf(int64(v), &res.Values[v], buf)
	}
	nv := c.g.NumVertices()
	var tDropped, tDuplicated int64
	if fc, ok := c.transport.(FaultCounter); ok {
		tDropped, tDuplicated = fc.FaultCounts()
	}
	// Fold the transport's own fault counts into the registry so a live
	// Snapshot and the final Stats agree.
	c.sh0.Add(telemetry.CtrBatchesDropped, tDropped)
	c.sh0.Add(telemetry.CtrBatchesDuplicated, tDuplicated)
	t := c.tel.CounterTotals()
	res.Stats = Stats{
		Stats: core.Stats{
			BlockUpdates:   t[telemetry.CtrBlockUpdates],
			VertexUpdates:  t[telemetry.CtrVertexUpdates],
			EdgesTraversed: t[telemetry.CtrEdgesTraversed],
			ScatterWrites:  t[telemetry.CtrLocalWrites] + t[telemetry.CtrMessagesSent],
			Converged:      c.converged.Load(),
			StallWindows:   t[telemetry.CtrStallWindows],
			WallTime:       time.Since(start),
		},
		Nodes:             c.cfg.Nodes,
		MessagesSent:      t[telemetry.CtrMessagesSent],
		BatchesSent:       t[telemetry.CtrBatchesSent],
		LocalWrites:       t[telemetry.CtrLocalWrites],
		BatchesRetried:    t[telemetry.CtrBatchesRetried],
		BatchesDropped:    t[telemetry.CtrBatchesDropped],
		BatchesDuplicated: t[telemetry.CtrBatchesDuplicated],
		NodesFailed:       t[telemetry.CtrNodesFailed],
	}
	if nv > 0 {
		res.Stats.Epochs = float64(res.Stats.VertexUpdates) / float64(nv)
	}
	if errp := c.failure.Load(); errp != nil {
		return nil, *errp
	}
	return res, nil
}

// deliverLocal is the transport's injection point into node inboxes. Data
// envelopes queue on the receiver's inbox and apply backpressure; acks
// settle directly on the delivering goroutine — settle only takes the
// receiving node's unacked lock, so it can never block on an applier,
// never competes with data for inbox space, and never deadlocks two
// appliers acking each other. (A transport may still drop or delay the
// ack in flight; the sender's retry of the idempotent batch covers that.)
func (c *clusterRun[V, M]) deliverLocal(to int, e Envelope) {
	n := c.nodes[to]
	if e.kind != envData {
		c.settle(n, e.id)
		return
	}
	// A parked channel send, never a poll loop: under heavy chaos tens of
	// thousands of delayed deliveries can be in flight at once, and
	// spin-waiting on a full inbox melts the scheduler. The two escape
	// hatches are channels too — down unblocks senders to a dead node
	// (the failover rebuild compensates for the batch), done unblocks
	// everything at teardown (the run is over; the batch cannot matter).
	select {
	case n.inbox <- e:
	case <-n.down:
	case <-c.done:
	}
}

// workerLoop is one node-local fused gather-apply-scatter worker, cycling
// over the blocks its node currently owns.
func (c *clusterRun[V, M]) workerLoop(n *node[V, M], sh *telemetry.Shard) {
	sch, err := sched.New(sched.Cyclic, n.st, uint64(n.id)+1)
	if err != nil {
		c.fail(fmt.Errorf("cluster: node %d scheduler: %w", n.id, err))
		return
	}
	ws := newWorkerState(c.prog, c.cfg)
	spins := 0
	for {
		nap := c.workerStep(n, sch, ws, sh, &spins)
		if nap < 0 {
			return
		}
		if nap > 0 {
			// Back off outside the fence so a pending failover is never
			// delayed by an idle worker's nap.
			time.Sleep(nap)
		}
	}
}

// workerStep runs one claim-process-done iteration under the failover
// fence. It returns a backoff duration (0 = progress was made), or a
// negative duration when the worker should exit.
func (c *clusterRun[V, M]) workerStep(n *node[V, M], sch sched.Scheduler, ws *workerState[V, M], sh *telemetry.Shard, spins *int) time.Duration {
	c.fence.RLock()
	defer c.fence.RUnlock()
	if c.stopping.Load() || n.failed.Load() {
		return -1
	}
	if c.vertexUpdates() >= c.budget {
		// Workers police the budget themselves; the coordinator's
		// polling interval would otherwise allow a large overshoot.
		c.stop()
		return -1
	}
	b, ok := sch.Next()
	if !ok {
		*spins++
		if *spins < 64 {
			// Another worker may hold every active block; yield.
			return time.Microsecond
		}
		return 50 * time.Microsecond
	}
	*spins = 0
	c.processBlock(n, b, ws, sh)
	n.st.Done(b)
	return 0
}

// workerState is the per-worker scratch.
type workerState[V, M any] struct {
	acc      M
	old, src V
	buf      []uint64
	enc      []uint64 // encoded scatter value
	deltas   []float64
	pending  []batch // one building batch per destination node
}

func newWorkerState[V, M any](prog bcd.Program[V, M], cfg Config) *workerState[V, M] {
	words := prog.Codec().Words()
	if words < 2 {
		words = 2
	}
	return &workerState[V, M]{
		acc:     prog.NewAccum(),
		buf:     make([]uint64, words),
		enc:     make([]uint64, prog.Codec().Words()),
		pending: make([]batch, cfg.Nodes),
	}
}

// processBlock runs the fused GAS chain for one global block on node n.
// Work counters land in the calling worker's telemetry shard sh.
//
//abcd:hotpath
func (c *clusterRun[V, M]) processBlock(n *node[V, M], b int, ws *workerState[V, M], sh *telemetry.Shard) {
	lo, hi := c.part.VertexRange(b)
	if cap(ws.deltas) < hi-lo {
		ws.deltas = make([]float64, hi-lo) //abcdlint:ignore hotpath -- amortized: grows once to the largest owned block, then reused
	}
	deltas := ws.deltas[:hi-lo]
	var edges int64

	for v := lo; v < hi; v++ {
		c.values.LoadBuf(int64(v), &ws.old, ws.buf)
		c.prog.ResetAccum(&ws.acc)
		slo, shi := c.g.InOffset(v), c.g.InOffset(v+1)
		for s := slo; s < shi; s++ {
			c.cache.LoadBuf(s, &ws.src, ws.buf)
			c.prog.EdgeGather(&ws.acc, ws.old, c.g.InWeight(s), ws.src)
		}
		edges += shi - slo
		newVal := c.prog.Apply(uint32(v), ws.old, &ws.acc, shi-slo, c.g)
		if c.prog.Delta(ws.old, newVal) == 0 {
			deltas[v-lo] = 0
			continue
		}
		deltas[v-lo] = c.prog.Delta(
			c.prog.ScatterValue(uint32(v), ws.old, c.g),
			c.prog.ScatterValue(uint32(v), newVal, c.g))
		c.values.StoreBuf(int64(v), newVal, ws.buf)
	}
	sh.Add(telemetry.CtrBlockUpdates, 1)
	sh.Add(telemetry.CtrVertexUpdates, int64(hi-lo))
	sh.Add(telemetry.CtrEdgesTraversed, edges)

	// Scatter: local slots store directly; remote slots batch into
	// state-based messages for their owner node.
	codec := c.prog.Codec()
	for v := lo; v < hi; v++ {
		d := deltas[v-lo]
		if d <= c.cfg.Epsilon {
			continue
		}
		c.values.LoadBuf(int64(v), &ws.old, ws.buf)
		sval := c.prog.ScatterValue(uint32(v), ws.old, c.g)
		codec.Encode(sval, ws.enc)
		for i := c.g.OutOffset(v); i < c.g.OutOffset(v+1); i++ {
			slot := c.g.OutPos(i)
			db := c.part.BlockOf(c.g.OutDst(i))
			owner := c.owner(db)
			if owner == n.id {
				c.cache.StoreBuf(slot, sval, ws.buf)
				n.st.Activate(db, d)
				sh.Add(telemetry.CtrLocalWrites, 1)
				continue
			}
			p := &ws.pending[owner]
			p.slots = append(p.slots, slot)        //abcdlint:ignore hotalloc,hotpath -- amortized: flush resets the batch to [:0], capacity is retained
			p.blocks = append(p.blocks, int32(db)) //abcdlint:ignore hotalloc,hotpath -- amortized: flush resets the batch to [:0], capacity is retained
			p.words = append(p.words, ws.enc...)   //abcdlint:ignore hotalloc,hotpath -- amortized: flush resets the batch to [:0], capacity is retained
			if len(p.slots) >= c.cfg.batchSize() {
				c.flush(n, owner, p, sh)
			}
		}
	}
	for owner := range ws.pending {
		if len(ws.pending[owner].slots) > 0 {
			c.flush(n, owner, &ws.pending[owner], sh)
		}
	}
}

// flush turns the building batch into a data envelope, registers it for
// at-least-once retry, and hands it to the transport. Counter order
// matters for termination: totalSent and inflight rise before the send,
// and inflight falls only when the ack comes back (or the destination
// dies and the failover rebuild takes over the batch's duty).
func (c *clusterRun[V, M]) flush(n *node[V, M], owner int, p *batch, sh *telemetry.Shard) {
	if !n.flow.Acquire(c.stopped) {
		// Teardown: the batch dies with the run. Waiting on done instead
		// would deadlock — done closes only after the workers exit, and
		// under a partition the window tokens held by undeliverable
		// batches are never coming back.
		return
	}
	e := Envelope{
		kind:   envData,
		from:   n.id,
		id:     c.seq.Add(1),
		sentAt: time.Now(),
		slots:  append([]int64(nil), p.slots...),  //abcdlint:ignore hotalloc,hotpath -- ownership copy: the envelope crosses the transport while p is reused
		blocks: append([]int32(nil), p.blocks...), //abcdlint:ignore hotalloc,hotpath -- ownership copy: the envelope crosses the transport while p is reused
		words:  append([]uint64(nil), p.words...), //abcdlint:ignore hotalloc,hotpath -- ownership copy: the envelope crosses the transport while p is reused
	}
	p.slots, p.blocks, p.words = p.slots[:0], p.blocks[:0], p.words[:0]
	c.totalSent.Add(1)
	c.inflight.Add(1)
	sh.Add(telemetry.CtrMessagesSent, int64(len(e.slots)))
	sh.Add(telemetry.CtrBatchesSent, 1)
	pe := n.flow.Track(owner, e)
	n.unackedMu.Lock() //abcdlint:ignore hotpath -- at-least-once bookkeeping: one lock per batch, amortized over BatchSize slot updates
	n.unacked[e.id] = pe
	n.unackedMu.Unlock() //abcdlint:ignore hotpath -- at-least-once bookkeeping: see the matching Lock above
	c.transport.Send(n.id, owner, e)
}

// applyLoop consumes a node's inbox until the node fails (after which it
// discards traffic so senders never block on a dead node) or the run's
// done channel closes at shutdown.
func (c *clusterRun[V, M]) applyLoop(n *node[V, M], sh *telemetry.Shard) {
	as := &applyScratch[V]{buf: make([]uint64, max(c.cache.Words(), 2))}
	for {
		select {
		case <-n.down:
			for { // discard traffic until shutdown
				select {
				case <-c.done:
					return
				case <-n.inbox:
				}
			}
		case <-c.done:
			return
		case e := <-n.inbox:
			n.applyMu.Lock()
			if !n.failed.Load() {
				start := c.tel.Stamp()
				c.handleEnvelope(n, e, as)
				sh.Observe(telemetry.StageApply, c.tel.Stamp()-start)
			}
			n.applyMu.Unlock()
		}
	}
}

// applyScratch is the applier's reusable transfer scratch.
type applyScratch[V any] struct {
	old, incoming V
	buf           []uint64
}

// handleEnvelope applies one data batch on node n under the per-slot
// write-stamp guard and acknowledges it — every time, even when every
// slot was stale, because a duplicate usually means the previous ack was
// lost. (Acks themselves never reach here; deliverLocal settles them on
// the delivering goroutine.)
func (c *clusterRun[V, M]) handleEnvelope(n *node[V, M], e Envelope, as *applyScratch[V]) {
	if c.cfg.NetDelay > 0 {
		if wait := time.Until(e.sentAt.Add(c.cfg.NetDelay)); wait > 0 {
			time.Sleep(wait)
		}
	}
	words := c.cache.Words()
	for i, slot := range e.slots {
		if c.slotSeq[slot].Load() > e.id {
			continue // stale redelivery: a newer write already landed
		}
		c.cache.LoadBuf(slot, &as.old, as.buf)
		c.prog.Codec().DecodeInto(e.words[i*words:(i+1)*words], &as.incoming)
		c.cache.StoreBuf(slot, as.incoming, as.buf)
		c.slotSeq[slot].Store(e.id)
		if d := c.prog.Delta(as.old, as.incoming); d > c.cfg.Epsilon {
			n.st.Activate(int(e.blocks[i]), d)
		}
	}
	c.transport.Send(n.id, e.from, Envelope{kind: envAck, from: n.id, id: e.id})
}

// settle clears one unacked batch on first ack; duplicate acks find the
// entry gone and decrement nothing, keeping inflight exact.
func (c *clusterRun[V, M]) settle(n *node[V, M], id uint64) {
	now := time.Now()
	n.unackedMu.Lock()
	p, ok := n.unacked[id]
	if ok {
		delete(n.unacked, id)
	}
	n.unackedMu.Unlock()
	if ok {
		c.inflight.Add(-1)
		n.flow.Ack(p, now)
	}
}

// retryLoop is the at-least-once delivery engine: it rescans every node's
// unacked batches, retransmits the ones its Flow says are due, abandons
// batches whose destination died (the failover rebuild is their
// compensation), and fails the run if a batch to a live node outlives its
// delivery deadline.
func (c *clusterRun[V, M]) retryLoop(ctx context.Context) {
	timer := time.NewTimer(c.retryTick())
	defer timer.Stop()
	var due []*Pending // collected under the unacked lock, sent after it
	for !c.stopping.Load() {
		select {
		case <-ctx.Done():
			// coordinate flips stopping on cancellation; returning here
			// just skips the rest of the tick.
			return
		case <-timer.C:
		}
		timer.Reset(c.retryTick())
		now := time.Now()
		for _, n := range c.nodes {
			due = due[:0]
			abandoned := 0
			n.unackedMu.Lock()
			for id, p := range n.unacked {
				if c.nodes[p.To].failed.Load() {
					delete(n.unacked, id)
					n.flow.Drop(p)
					abandoned++
					continue
				}
				switch n.flow.Due(p, now) {
				case Expired:
					delete(n.unacked, id)
					n.flow.Drop(p)
					abandoned++
					c.fail(fmt.Errorf("cluster: batch %d from node %d to live node %d undelivered after %v (%d attempts): transport partitioned beyond the retry deadline",
						id, n.id, p.To, now.Sub(p.Env.sentAt), p.Attempts))
				case Retransmit:
					due = append(due, p)
				}
			}
			n.unackedMu.Unlock()
			if abandoned > 0 {
				c.sh0.Add(telemetry.CtrBatchesDropped, int64(abandoned))
				c.inflight.Add(int64(-abandoned))
			}
			for _, p := range due {
				c.sh0.Add(telemetry.CtrBatchesRetried, 1)
				c.transport.Send(n.id, p.To, p.Env)
			}
		}
	}
}

// retryTick is the shortest retry-scan period any node's Flow asks for.
func (c *clusterRun[V, M]) retryTick() time.Duration {
	tick := c.nodes[0].flow.RetryTick()
	for _, n := range c.nodes[1:] {
		tick = min(tick, n.flow.RetryTick())
	}
	return tick
}

// watchdog samples run progress once per watchdog period and counts the
// periods in which nothing moved — neither a vertex update nor a batch
// application. The count surfaces as Stats.StallWindows so a hung or
// partitioned run is visible even when it eventually completes.
func (c *clusterRun[V, M]) watchdog(ctx context.Context) {
	period := c.cfg.watchdogPeriod()
	if period <= 0 {
		return
	}
	step := period / 8
	if step < time.Millisecond {
		step = time.Millisecond
	}
	timer := time.NewTimer(step)
	defer timer.Stop()
	last := int64(-1)
	for {
		deadline := time.Now().Add(period)
		for time.Now().Before(deadline) {
			if c.stopping.Load() {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
			timer.Reset(step)
		}
		progress := c.vertexUpdates() + c.totalSent.Load() - c.inflight.Load()
		if progress == last {
			c.sh0.Add(telemetry.CtrStallWindows, 1)
		}
		last = progress
	}
}

// coordinate is the cluster's termination unit. It stops the run when the
// context is cancelled, a failure is recorded, the epoch budget is
// exhausted, or distributed quiescence is certain.
func (c *clusterRun[V, M]) coordinate(ctx context.Context) {
	done := ctx.Done()
	for {
		if c.stopping.Load() {
			return
		}
		select {
		case <-done:
			// Graceful cancellation: stop scheduling, keep the partial
			// result. Converged stays false.
			c.stop()
			return
		default:
		}
		if c.vertexUpdates() >= c.budget {
			c.stop()
			return
		}
		if c.checkQuiescence() {
			c.converged.Store(true)
			c.stop()
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// checkQuiescence implements the exact distributed termination test,
// ack-based so it stays exact under retries, duplicates, and node death.
//
// Order of observation: (1) snapshot the monotone totalSent counter;
// (2) require no failover rebuild in progress — a rebuild is about to
// re-activate blocks, so the system is not quiet; (3) require
// inflight == 0 — every logical batch ever created has either been acked
// (the receiver raised the destination's active bit *before* sending the
// ack, and the sender decremented inflight only after processing the
// ack, so all resulting activations are visible) or been abandoned at a
// failed node *after* the rebuild that compensates for it started, which
// step (2) covers; retries and duplicate deliveries never touch the
// counter, and duplicate acks find the unacked entry already gone;
// (4) require every live node quiescent — any worker still processing
// holds its block in-flight and would fail this (dead nodes' scheduler
// state is orphaned by reassignment and excluded); (5) require totalSent
// unchanged and still no rebuild — no new batch was created and no node
// died while we looked. If all five hold, no work exists anywhere.
func (c *clusterRun[V, M]) checkQuiescence() bool {
	s1 := c.totalSent.Load()
	if c.recovering.Load() != 0 {
		return false
	}
	if c.inflight.Load() != 0 {
		return false
	}
	for _, n := range c.nodes {
		if n.failed.Load() {
			continue
		}
		if !n.st.Quiescent() {
			return false
		}
	}
	return c.totalSent.Load() == s1 && c.recovering.Load() == 0
}
