package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/edgestore"
	"graphabcd/internal/graph"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// Run executes prog over g under cfg and returns the final vertex values
// with run statistics. Type parameters follow the program's (V, M); Go
// cannot infer them from a concrete program type, so callers instantiate
// explicitly, e.g. core.Run[float64, float64](g, bcd.PageRank{}, cfg).
func Run[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*Result[V], error) {
	return RunContext[V, M](context.Background(), g, prog, cfg)
}

// RunContext is Run with cancellation and deadline support: when ctx is
// cancelled the engine stops scheduling, drains its workers, and returns
// the partial result with Stats.Converged == false and a nil error. A
// stall watchdog samples progress every Config.Watchdog period and
// reports no-progress windows in Stats.StallWindows.
func RunContext[V, M any](ctx context.Context, g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*Result[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	// Checkpoint setup and resume happen before any worker or watchdog
	// goroutine starts: a resume failure must abort the run cleanly, and
	// the restored state must be fully published before anyone reads it.
	ck, err := newCheckpointer(e, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	if ck != nil && cfg.Checkpoint.Resume != "" {
		if err := ck.resume(cfg.Checkpoint.Resume); err != nil {
			return nil, err
		}
	}
	if cfg.RecordSchedule != nil {
		e.rec = checkpoint.NewScheduleRecorder(cfg.RecordSchedule)
	}
	start := time.Now()
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		e.watchdog(stopWatch)
	}()
	if ck != nil && ck.interval > 0 {
		watch.Add(1)
		go func() {
			defer watch.Done()
			ck.loop(stopWatch)
		}()
	}
	var converged bool
	if cfg.Mode == BSP {
		converged = e.runBSP()
	} else {
		converged = e.runBlocked()
	}
	close(stopWatch)
	watch.Wait()
	if e.rec != nil {
		// A lost schedule is a corrupt replay; surface the sink's first
		// error as the run's.
		if err := e.rec.Close(); err != nil {
			e.fail(fmt.Errorf("core: schedule recording: %w", err))
		}
	}
	if errp := e.failure.Load(); errp != nil {
		return nil, *errp
	}
	return e.result(converged, time.Since(start)), nil
}

// engine holds the shared state of one run.
type engine[V, M any] struct {
	g    *graph.Graph
	prog bcd.Program[V, M]
	// op is non-nil when prog is operation-based (bcd.OpBased): edge
	// slots then hold pending deltas that SCATTER accumulates with atomic
	// read-modify-writes and GATHER consumes with atomic swaps.
	op   bcd.OpBased[V, M]
	cfg  Config
	part *graph.Partition
	// ctx carries the run's cancellation signal; the scheduling loops
	// poll it and stop gracefully with a partial result.
	ctx context.Context

	values *word.Array[V] // vertex values, |V| entries
	cache  *word.Array[V] // cached source values per in-edge slot, |E| entries

	st *sched.State
	// tel is the run's telemetry registry (Config.Telemetry, or a private
	// bare-counter one). All work accounting goes through its per-worker
	// shards: shard 0 belongs to the scheduler and the watchdog, shards
	// 1..NumPEs to the PE workers, the rest to the scatter workers. The
	// shard split is what keeps counting off shared cache lines — the old
	// single counter struct false-shared between every worker.
	tel    *telemetry.Registry
	shards []telemetry.Shard
	sh0    *telemetry.Shard // scheduler/watchdog shard
	live   bool             // tel records timings (histograms or tracing)
	nv     int64            // |V|, cached for the staleness observation

	edges edgestore.Source
	// failure holds the first edge-source error; the scheduler aborts the
	// run when it is set and Run returns it. failCh is closed alongside
	// the first fail() so goroutines parked on channel sends can abort
	// without polling.
	failure  atomic.Pointer[error]
	failCh   chan struct{}
	failOnce sync.Once

	deltaPool sync.Pool // *[]float64 buffers of block size
	dvalPool  sync.Pool // *[]V out-delta buffers (operation-based mode)

	// resumed is set when a checkpoint resume seeded values and scheduler
	// state; runBlocked then skips the fresh-run ActivateAll (resume did
	// its own mass-preserving activation).
	resumed bool
	// ckptGen increments at the start and end of every checkpoint capture
	// (odd while one is in progress). The watchdog skips stall windows
	// that overlapped a capture so checkpoint I/O never counts as an
	// engine stall (Stats.StallWindows stays a pure progress signal).
	ckptGen atomic.Int64
	// rec, when non-nil, records every issued block id for deterministic
	// replay. Only the scheduler goroutine writes to it.
	rec *checkpoint.ScheduleRecorder

	// modeled byte widths for the accelerator cost model
	valueBytes int64 // encoded vertex value width
	edgeBytes  int64 // streamed per-edge payload: weight + cached value
}

func newEngine[V, M any](g *graph.Graph, prog bcd.Program[V, M], cfg Config) (*engine[V, M], error) {
	blockSize := cfg.BlockSize
	if cfg.Mode == BSP {
		blockSize = g.NumVertices() // full-gradient Jacobi
	}
	part, err := graph.NewPartition(g, blockSize)
	if err != nil {
		return nil, err
	}
	if cfg.Sim != nil {
		sc := cfg.Sim.Config()
		if cfg.NumPEs > sc.NumPEs {
			return nil, fmt.Errorf("core: NumPEs %d exceeds simulator's %d", cfg.NumPEs, sc.NumPEs)
		}
		if cfg.NumScatter > sc.CPUThreads {
			return nil, fmt.Errorf("core: NumScatter %d exceeds simulator's %d CPU threads", cfg.NumScatter, sc.CPUThreads)
		}
	}
	codec := prog.Codec()
	e := &engine[V, M]{
		g:          g,
		prog:       prog,
		cfg:        cfg,
		part:       part,
		values:     word.NewArray(codec, g.NumVertices()),
		cache:      word.NewArray(codec, g.NumEdges()),
		st:         sched.NewState(part.NumBlocks()),
		failCh:     make(chan struct{}),
		valueBytes: int64(codec.Words()) * 8,
		edgeBytes:  int64(codec.Words())*8 + 4,
	}
	if op, ok := prog.(bcd.OpBased[V, M]); ok {
		if codec.Words() != 1 {
			return nil, fmt.Errorf("core: operation-based program %q needs a single-word codec (got %d words)",
				prog.Name(), codec.Words())
		}
		e.op = op
	}
	e.tel = cfg.Telemetry
	if e.tel == nil {
		e.tel = telemetry.New(telemetry.Options{})
	}
	// Shard 0 is the scheduler's; gather workers take 1..NumPEs and
	// scatter workers the rest (the BSP sweeps reuse the same split).
	e.shards = e.tel.Shards(1 + cfg.NumPEs + cfg.NumScatter)
	e.sh0 = &e.shards[0]
	e.live = e.tel.Live()
	e.nv = int64(g.NumVertices())
	e.tel.SetVertices(g.NumVertices())
	e.tel.RegisterGauge("active_blocks", func() float64 { return float64(e.st.NumActive()) })
	e.tel.RegisterGauge("residual", e.st.PendingMass)
	e.edges = cfg.Edges
	if e.edges == nil {
		e.edges = edgestore.InMemory(g)
	}
	e.deltaPool.New = func() any {
		buf := make([]float64, part.BlockSize())
		return &buf
	}
	e.dvalPool.New = func() any {
		buf := make([]V, part.BlockSize())
		return &buf
	}
	e.initArrays()
	return e, nil
}

// initArrays populates vertex values and edge caches in parallel.
func (e *engine[V, M]) initArrays() {
	n := e.g.NumVertices()
	workers := e.cfg.NumPEs + e.cfg.NumScatter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vlo, vhi := w*n/workers, (w+1)*n/workers
			if vlo == vhi {
				return
			}
			slo, shi := e.g.InOffset(vlo), e.g.InOffset(vhi)
			srcs, _, release, err := e.edges.Block(vlo, vhi, slo, shi)
			if err != nil {
				e.fail(err)
				return
			}
			defer release()
			buf := make([]uint64, e.values.Words())
			for v := vlo; v < vhi; v++ {
				e.values.StoreBuf(int64(v), e.prog.Init(uint32(v), e.g), buf)
				for s := e.g.InOffset(v); s < e.g.InOffset(v+1); s++ {
					e.cache.StoreBuf(s, e.prog.InitEdge(srcs[s-slo], e.g), buf)
				}
			}
		}(w)
	}
	wg.Wait()
}

// maxVertexUpdates translates MaxEpochs into a vertex-update budget.
func (e *engine[V, M]) maxVertexUpdates() int64 {
	if e.cfg.MaxEpochs == 0 {
		return math.MaxInt64
	}
	return int64(e.cfg.MaxEpochs * float64(e.g.NumVertices()))
}

// vertexUpdates is the cross-shard total driving the epoch budget, the
// epoch hook, the watchdog, and the staleness observation.
func (e *engine[V, M]) vertexUpdates() int64 {
	return e.tel.Total(telemetry.CtrVertexUpdates)
}

func (e *engine[V, M]) stall(stage string) {
	if e.cfg.StallHook != nil {
		e.cfg.StallHook(stage)
	}
}

// fail records the first edge-source error; the scheduler aborts the run.
func (e *engine[V, M]) fail(err error) {
	e.failure.CompareAndSwap(nil, &err)
	e.failOnce.Do(func() { close(e.failCh) })
}

func (e *engine[V, M]) failed() bool { return e.failure.Load() != nil }

// cancelled reports whether the run's context has been cancelled or has
// passed its deadline.
func (e *engine[V, M]) cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// recoverToFailure converts a worker panic into a run failure instead of
// a process crash. Deferred at every worker-goroutine boundary; the
// panicked worker's in-flight block stays unfinished, so the scheduler
// exits through the failure check rather than quiescence.
func (e *engine[V, M]) recoverToFailure() {
	if r := recover(); r != nil {
		e.fail(fmt.Errorf("core: worker panic: %v", r))
	}
}

// watchdog counts sampling periods in which no vertex update happened,
// surfacing them as Stats.StallWindows.
func (e *engine[V, M]) watchdog(stop <-chan struct{}) {
	period := e.cfg.watchdogPeriod()
	if period <= 0 {
		return
	}
	last := int64(-1)
	lastGen := e.ckptGen.Load()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		progress := e.vertexUpdates()
		gen := e.ckptGen.Load()
		// A window is a stall only if no vertex updated AND no checkpoint
		// capture overlapped it (gen unchanged and even): pausing for
		// checkpoint I/O is paid-for durability, not an engine stall.
		if progress == last && gen == lastGen && gen%2 == 0 {
			e.sh0.Add(telemetry.CtrStallWindows, 1)
		}
		last, lastGen = progress, gen
	}
}

// blockItem carries one scheduled block into the accelerator queue; enq
// is the issue Stamp, so the consumer can observe the queue wait.
type blockItem struct {
	b   int
	enq int64
}

// task carries one processed block from GATHER-APPLY to SCATTER.
type task struct {
	block  int
	deltas *[]float64 // per-vertex update magnitudes, pooled
	dvals  any        // *[]V per-vertex out-deltas (operation-based only)
	enq    int64      // Stamp at hand-off to the CPU queue
	// gatherV is the global vertex-update count when the gather read its
	// inputs; the scatter end subtracts it to observe per-block staleness
	// in milli-epochs. 0 when timing is disabled.
	gatherV int64
}

// runBlocked executes Async and Barrier modes. It reports whether the run
// converged (as opposed to hitting the MaxEpochs budget).
func (e *engine[V, M]) runBlocked() bool {
	nb := e.part.NumBlocks()
	if !e.resumed {
		e.st.ActivateAll(1)
	}
	scheduler, err := sched.New(e.cfg.Policy, e.st, e.cfg.Seed)
	if err != nil {
		// Config.Validate rejects unknown policies, so this is normally
		// unreachable — but a scheduler failure must surface as an error
		// from Run, never crash the process.
		e.fail(err)
		return false
	}

	// The task queues are small FIFOs, as on the HARPv2 prototype. Their
	// depth is the engine's staleness bound: a gather can run at most
	// ~2xNumPEs block-slots ahead of the scatter that publishes fresh
	// values, which keeps the asynchronous execution inside the bounded
	// delay that asynchronous BCD's convergence guarantee requires
	// (Sec. III-D) and preserves the Gauss-Seidel freshness that makes
	// small blocks converge faster (Sec. III-C). Deep queues would let
	// the gather pipeline race arbitrarily far ahead of scatter and
	// degenerate the engine toward Jacobi. The queues bound staleness only
	// while every worker keeps running; the async scheduler's claim window
	// (delay.go) bounds it when one stalls.
	qcap := func(workers int) int {
		c := e.cfg.QueueDepth
		if c == 0 {
			c = 2 * workers
		}
		if c > nb {
			c = nb
		}
		if c < 1 {
			c = 1
		}
		return c
	}
	accelQ := make(chan blockItem, qcap(e.cfg.NumPEs))
	cpuQ := make(chan task, qcap(e.cfg.NumScatter))
	e.tel.RegisterGauge("accel_queue_depth", func() float64 { return float64(len(accelQ)) })
	e.tel.RegisterGauge("cpu_queue_depth", func() float64 { return float64(len(cpuQ)) })

	var peWG, scatWG sync.WaitGroup
	for i := 0; i < e.cfg.NumPEs; i++ {
		peWG.Add(1)
		go func(i int) {
			defer peWG.Done()
			e.peWorker(i, accelQ, cpuQ)
		}(i)
	}
	hybridQ := accelQ
	if !e.cfg.Hybrid {
		hybridQ = nil
	}
	for j := 0; j < e.cfg.NumScatter; j++ {
		scatWG.Add(1)
		go func(j int) {
			defer scatWG.Done()
			e.scatterWorker(j, cpuQ, hybridQ)
		}(j)
	}

	converged := e.schedule(scheduler, accelQ)

	close(accelQ)
	peWG.Wait()
	close(cpuQ)
	scatWG.Wait()
	return converged
}

// schedule is the termination unit plus scheduler of the Sec. IV-C flow
// (steps 1-2): it selects blocks until the active list drains (converged)
// or the epoch budget is exhausted.
func (e *engine[V, M]) schedule(s sched.Scheduler, accelQ chan<- blockItem) bool {
	if e.cfg.Mode == Barrier {
		return e.scheduleBarrier(s, accelQ)
	}
	budget := e.maxVertexUpdates()
	spins := 0
	epochsSeen := 0
	// One sweep of claims past the oldest block in flight: a stalled
	// block is at most one sweep stale when its update lands.
	win := newClaimWindow(e.part.NumBlocks(), e.part.NumBlocks())
	for {
		e.stall("schedule")
		epochsSeen = e.fireEpochHook(epochsSeen)
		if e.failed() || e.cancelled() || e.vertexUpdates() >= budget {
			return false
		}
		if e.st.Quiescent() {
			return true
		}
		if win.full(e.st) {
			// The oldest block in flight is a sweep behind: wait for it.
			idle(&spins)
			continue
		}
		b, ok := s.Next()
		if !ok {
			// Nothing claimable: blocks are in flight. Yield and re-poll.
			idle(&spins)
			continue
		}
		win.claimed(b)
		spins = 0
		e.sh0.Add(telemetry.CtrTasksIssued, 1)
		if e.rec != nil {
			e.rec.Record(b)
		}
		if !e.sendBlock(accelQ, b) {
			return false
		}
	}
}

// sendBlock enqueues a claimed block, aborting if a worker failure or
// cancellation means the queue may never drain (all consumers of a stage
// can die when their panics are converted to run failures). The sender
// parks — no polling — so a full queue costs nothing but a goroutine.
func (e *engine[V, M]) sendBlock(accelQ chan<- blockItem, b int) bool {
	var cancel <-chan struct{}
	if e.ctx != nil {
		cancel = e.ctx.Done()
	}
	select {
	case accelQ <- blockItem{b: b, enq: e.tel.Stamp()}:
		return true
	case <-e.failCh:
		return false
	case <-cancel:
		return false
	}
}

// sendTask hands a finished gather-apply to the scatter stage with the
// same failure-aware discipline as sendBlock. Cancellation does not
// abort it: the scatter stage outlives the gather stage at teardown, so
// the send completes and the block retires cleanly in the partial result.
func (e *engine[V, M]) sendTask(cpuQ chan<- task, t task) bool {
	select {
	case cpuQ <- t:
		return true
	case <-e.failCh:
		return false
	}
}

// fireEpochHook invokes OnEpoch for every freshly completed
// epoch-equivalent, records a convergence sample into the telemetry
// registry, and returns the updated count.
func (e *engine[V, M]) fireEpochHook(seen int) int {
	if e.cfg.OnEpoch == nil && !e.live {
		return seen
	}
	n := int64(e.g.NumVertices())
	if n == 0 {
		return seen
	}
	for done := int(e.vertexUpdates() / n); seen < done; {
		seen++
		if e.cfg.OnEpoch != nil {
			e.cfg.OnEpoch(seen)
		}
		e.tel.RecordConvergence(seen, e.st.PendingMass(), e.st.NumActive())
	}
	return seen
}

// scheduleBarrier is the 'Barrier' baseline of Fig. 7: blocks are
// dispatched in waves and a memory barrier (full drain of the gather-
// apply-scatter chain) separates consecutive waves. Convergence behaviour
// matches Async — the same blocks run with the same update rule — but PEs
// idle at every wave tail.
func (e *engine[V, M]) scheduleBarrier(s sched.Scheduler, accelQ chan<- blockItem) bool {
	budget := e.maxVertexUpdates()
	spins := 0
	epochsSeen := 0
	for {
		e.stall("schedule")
		epochsSeen = e.fireEpochHook(epochsSeen)
		if e.failed() || e.cancelled() || e.vertexUpdates() >= budget {
			return false
		}
		if e.st.Quiescent() {
			return true
		}
		// Snapshot the active set: one wave is the blocks claimable *now*.
		// Blocks activated while the wave runs wait for the next wave —
		// that is what distinguishes synchronized execution from the
		// async engine, where they would be dispatched immediately.
		wave := 0
		for b := 0; b < e.part.NumBlocks(); b++ {
			if e.st.Active(b) && !e.st.InFlight(b) && e.st.Claim(b) {
				e.sh0.Add(telemetry.CtrTasksIssued, 1)
				if e.rec != nil {
					e.rec.Record(b)
				}
				if !e.sendBlock(accelQ, b) {
					return false
				}
				wave++
			}
		}
		if wave == 0 {
			idle(&spins)
			continue
		}
		spins = 0
		e.awaitDrain()
		if e.cfg.Sim != nil {
			e.cfg.Sim.Barrier() // model the wave barrier's idle time
		}
	}
}

// awaitDrain blocks until every issued task has completed its scatter,
// or a worker failure makes completion impossible.
func (e *engine[V, M]) awaitDrain() {
	spins := 0
	for e.tel.Total(telemetry.CtrTasksFinished) < e.tel.Total(telemetry.CtrTasksIssued) {
		if e.failed() {
			return
		}
		idle(&spins)
	}
}

// idle backs off a polling loop: first yields, then sleeps briefly.
func idle(spins *int) {
	*spins++
	if *spins < 64 {
		runtime.Gosched()
	} else {
		time.Sleep(10 * time.Microsecond)
	}
}

// peWorker is one accelerator PE (steps 3-7): dequeue block, gather-apply,
// hand off to the CPU task queue. It observes its queue wait and gather
// latency into its own telemetry shard; both calls are no-ops in the
// bare-counter mode.
func (e *engine[V, M]) peWorker(i int, accelQ <-chan blockItem, cpuQ chan<- task) {
	defer e.recoverToFailure()
	sh := &e.shards[1+i]
	ws := newScratch(e.prog)
	for it := range accelQ {
		e.stall("gather")
		now := e.tel.Stamp()
		sh.Observe(telemetry.StageAccelWait, now-it.enq)
		sh.Trace(telemetry.StageAccelWait, it.b, it.enq, now-it.enq)
		t, edges := e.gatherApply(it.b, ws, sh)
		if sim := e.cfg.Sim; sim != nil {
			lo, hi := e.part.VertexRange(it.b)
			sim.LeastLoadedPE().RunBlock(edges, edges*e.edgeBytes, int64(hi-lo)*e.valueBytes)
		}
		t.enq = e.tel.Stamp()
		sh.Observe(telemetry.StageGather, t.enq-now)
		sh.Trace(telemetry.StageGather, it.b, now, t.enq-now)
		if !e.sendTask(cpuQ, t) {
			return
		}
	}
}

// scatterWorker is one CPU thread (steps 8-11). With hybrid execution it
// also steals gather-apply tasks from the accelerator queue when no
// scatter work is pending (Sec. IV-B).
func (e *engine[V, M]) scatterWorker(j int, cpuQ <-chan task, hybridQ <-chan blockItem) {
	defer e.recoverToFailure()
	sh := &e.shards[1+e.cfg.NumPEs+j]
	ws := newScratch(e.prog)
	mass := make([]float64, e.part.NumBlocks())
	touched := make([]int, 0, 64)
	runHybrid := func(it blockItem, ok bool) bool {
		if !ok {
			return false
		}
		e.stall("gather")
		now := e.tel.Stamp()
		t, edges := e.gatherApply(it.b, ws, sh)
		if sim := e.cfg.Sim; sim != nil {
			sim.LeastLoadedCPU().RunGather(edges, edges*e.edgeBytes)
		}
		sh.Add(telemetry.CtrHybridBlocks, 1)
		t.enq = e.tel.Stamp()
		sh.Observe(telemetry.StageGather, t.enq-now)
		sh.Trace(telemetry.StageGather, it.b, now, t.enq-now)
		e.scatter(t, ws, mass, &touched, sh)
		return true
	}
	for {
		// Scatter work first: it retires in-flight blocks and produces
		// the activations every other stage feeds on.
		select {
		case t, ok := <-cpuQ:
			if !ok {
				return
			}
			e.scatter(t, ws, mass, &touched, sh)
			continue
		default:
		}
		hq := hybridQ
		if hq != nil && e.cfg.Sim != nil && !e.cfg.Sim.CPUHasSlack() {
			// Under the platform model, steal gather work only while the
			// host workers' modeled clocks trail the PEs' — the paper's
			// "runtime detects the CPU is under-utilized" condition
			// (Sec. IV-B). A host gather costs ~CPUGatherNsPerEdge per
			// edge, far more than the streaming PE path, so unconditional
			// stealing would slow the modeled system down.
			hq = nil
		}
		select {
		case t, ok := <-cpuQ:
			if !ok {
				return
			}
			e.scatter(t, ws, mass, &touched, sh)
		case it, ok := <-hq:
			if !runHybrid(it, ok) {
				hybridQ = nil // accelerator queue closed; drain cpuQ only
			}
		}
	}
}

// workerScratch holds per-worker reusable buffers so hot loops do not
// allocate.
type workerScratch[V, M any] struct {
	acc      M
	old, src V
	val      V
	buf      []uint64 // word-array transfer buffer
}

func newScratch[V, M any](prog bcd.Program[V, M]) *workerScratch[V, M] {
	words := prog.Codec().Words()
	if words < 2 {
		words = 2 // word.Array.RMW needs two transfer slots
	}
	return &workerScratch[V, M]{
		acc: prog.NewAccum(),
		buf: make([]uint64, words),
	}
}

// gatherApply processes block b (steps 4-6): stream the block's in-edge
// cache sequentially, run GATHER-APPLY per vertex, store new values, and
// record per-vertex deltas for the scatter stage. Work counters land in
// the calling worker's shard sh.
//
//abcd:hotpath
func (e *engine[V, M]) gatherApply(b int, ws *workerScratch[V, M], sh *telemetry.Shard) (task, int64) {
	lo, hi := e.part.VertexRange(b)
	deltasPtr := e.deltaPool.Get().(*[]float64)
	deltas := (*deltasPtr)[:hi-lo]
	var dvalsPtr *[]V
	var dvals []V
	if e.op != nil {
		dvalsPtr = e.dvalPool.Get().(*[]V)
		dvals = (*dvalsPtr)[:hi-lo]
	}
	var gatherV int64
	if e.live {
		gatherV = e.vertexUpdates()
	}
	// Stream the block's static edge range from the configured source —
	// one contiguous read per block task, by the pull-push layout.
	blo, bhi := e.part.EdgeRange(b)
	_, weights, release, err := e.edges.Block(lo, hi, blo, bhi)
	if err != nil {
		e.fail(err)
		for i := range deltas {
			deltas[i] = 0
		}
		t := task{block: b, deltas: deltasPtr, gatherV: gatherV}
		if dvalsPtr != nil {
			t.dvals = dvalsPtr
		}
		return t, 0
	}
	defer release()
	var edges int64
	for v := lo; v < hi; v++ {
		e.values.LoadBuf(int64(v), &ws.old, ws.buf)
		e.prog.ResetAccum(&ws.acc)
		slo, shi := e.g.InOffset(v), e.g.InOffset(v+1)
		for s := slo; s < shi; s++ {
			if e.op != nil {
				// Consume the pending delta: swap the slot to the zero
				// delta so concurrent scatters can keep accumulating.
				e.cache.SwapValue(s, e.op.ZeroDelta(), ws.buf, &ws.src)
			} else {
				e.cache.LoadBuf(s, &ws.src, ws.buf)
			}
			e.prog.EdgeGather(&ws.acc, ws.old, weights[s-blo], ws.src)
		}
		n := shi - slo
		edges += n
		newVal := e.prog.Apply(uint32(v), ws.old, &ws.acc, n, e.g)
		if e.prog.Delta(ws.old, newVal) == 0 {
			deltas[v-lo] = 0
			continue
		}
		if e.op != nil {
			dvals[v-lo] = e.op.OutDelta(uint32(v), ws.old, newVal, e.g)
			deltas[v-lo] = e.prog.Delta(ws.old, newVal)
		} else {
			// The gradient mass driving activation and Gauss-Southwell
			// priority is the change of the *scatter image* — the value
			// that will actually be written onto out-edges. For PageRank
			// that is delta/outdeg: using the raw vertex delta would
			// overweight hub sources by their out-degree and misguide
			// the priority rule.
			deltas[v-lo] = e.prog.Delta(
				e.prog.ScatterValue(uint32(v), ws.old, e.g),
				e.prog.ScatterValue(uint32(v), newVal, e.g))
		}
		e.values.StoreBuf(int64(v), newVal, ws.buf)
	}
	sh.Add(telemetry.CtrBlockUpdates, 1)
	sh.Add(telemetry.CtrVertexUpdates, int64(hi-lo))
	sh.Add(telemetry.CtrEdgesTraversed, edges)
	t := task{block: b, deltas: deltasPtr, gatherV: gatherV}
	if dvalsPtr != nil {
		t.dvals = dvalsPtr // avoid wrapping a typed nil in the interface
	}
	return t, edges
}

// scatter processes one finished block (steps 9-11): state-based updates
// are copied onto out-edge cache slots, Gauss-Southwell mass accumulates
// onto destination blocks, and the active list is updated. Marking the
// block done last keeps the termination unit's quiescence test sound.
// The CPU-queue wait, the scatter latency, and the block's staleness are
// observed into the calling worker's shard sh.
//
//abcd:hotpath
func (e *engine[V, M]) scatter(t task, ws *workerScratch[V, M], mass []float64, touched *[]int, sh *telemetry.Shard) {
	e.stall("scatter")
	start := e.tel.Stamp()
	sh.Observe(telemetry.StageCPUWait, start-t.enq)
	sh.Trace(telemetry.StageCPUWait, t.block, t.enq, start-t.enq)
	lo, hi := e.part.VertexRange(t.block)
	deltas := (*t.deltas)[:hi-lo]
	var dvals []V
	if t.dvals != nil {
		dvals = (*t.dvals.(*[]V))[:hi-lo]
	}
	var writes int64
	for v := lo; v < hi; v++ {
		d := deltas[v-lo]
		// State-based updates are self-healing, so sub-epsilon changes
		// can be dropped entirely. Operation-based deltas are mass that
		// would leak if dropped: scatter every nonzero change and use
		// epsilon only to gate activation below.
		if d <= e.cfg.Epsilon && (e.op == nil || d == 0) {
			continue
		}
		if e.op != nil {
			dval := dvals[v-lo]
			for i := e.g.OutOffset(v); i < e.g.OutOffset(v+1); i++ {
				e.cache.RMW(e.g.OutPos(i), ws.buf, &ws.val, func(cur V) V {
					return e.op.AccumulateDelta(cur, dval)
				})
				writes++
			}
		} else {
			e.values.LoadBuf(int64(v), &ws.val, ws.buf)
			sval := e.prog.ScatterValue(uint32(v), ws.val, e.g)
			for i := e.g.OutOffset(v); i < e.g.OutOffset(v+1); i++ {
				e.cache.StoreBuf(e.g.OutPos(i), sval, ws.buf)
				writes++
			}
		}
		if d <= e.cfg.Epsilon {
			continue // scattered, but not worth re-activating anyone
		}
		for i := e.g.OutOffset(v); i < e.g.OutOffset(v+1); i++ {
			tb := e.part.BlockOf(e.g.OutDst(i))
			if mass[tb] == 0 {
				*touched = append(*touched, tb) //abcdlint:ignore hotalloc,hotpath -- amortized: per-worker buffer, reset to [:0] below with capacity retained
			}
			mass[tb] += d
		}
	}
	// Step 11: update the destination blocks' active-list entries and
	// their pending gradient mass (the Sec. IV-B priority estimate).
	for _, tb := range *touched {
		e.st.Activate(tb, mass[tb])
		mass[tb] = 0
	}
	*touched = (*touched)[:0]
	sh.Add(telemetry.CtrScatterWrites, writes)
	if sim := e.cfg.Sim; sim != nil && writes > 0 {
		sim.LeastLoadedCPU().RunScatter(writes, writes*e.valueBytes)
	}
	e.deltaPool.Put(t.deltas)
	if t.dvals != nil {
		e.dvalPool.Put(t.dvals.(*[]V))
	}
	e.st.Done(t.block)
	sh.Add(telemetry.CtrTasksFinished, 1)
	if end := e.tel.Stamp(); e.live {
		sh.Observe(telemetry.StageScatter, end-start)
		sh.Trace(telemetry.StageScatter, t.block, start, end-start)
		if e.nv > 0 {
			sh.Observe(telemetry.StageStaleness, (e.vertexUpdates()-t.gatherV)*1000/e.nv)
		}
	}
}

// result decodes the final values and assembles statistics: Stats is the
// final merged snapshot of the run's telemetry registry.
func (e *engine[V, M]) result(converged bool, wall time.Duration) *Result[V] {
	n := e.g.NumVertices()
	vals := make([]V, n)
	buf := make([]uint64, e.values.Words())
	for v := 0; v < n; v++ {
		e.values.LoadBuf(int64(v), &vals[v], buf)
	}
	st := statsFromTelemetry(e.tel, n, converged, wall)
	if e.cfg.Sim != nil {
		st.SimTimeNs = e.cfg.Sim.SimTimeNs()
	}
	return &Result[V]{Values: vals, Stats: st}
}
