// Package dist simulates the LOCAL model of distributed computation
// (paper Section 1): the input graph is the communication network, every
// node hosts a state machine, and execution proceeds in synchronous
// rounds. In each round a node may perform unbounded local computation and
// send an unbounded message to each neighbor; the cost of an algorithm is
// the number of communication rounds.
//
// One round loop, Engine.Run, owns the round contract: the Init step,
// the termination, crash-blocked and max-rounds checks, the crash
// schedule, and the RoundStats/FaultStats accounting. It runs each step
// on one of two backends. The in-process backend runs on a frozen
// graph.Indexed snapshot: nodes are dense indices, inboxes are per-node
// slices reused across rounds, and messages are delivered by walking
// senders in index order, which yields the deterministic (sender, queue
// position) delivery order without sorting. Per-round work is sharded
// into contiguous index ranges over a worker pool sized by GOMAXPROCS
// (one worker runs the whole range on the calling goroutine); node
// programs execute genuinely concurrently but interact only through
// messages delivered at round boundaries, so every worker count produces
// identical results. The partition backend (NewCoordinator) runs each
// step on the ShardRunners behind a Partition's links, which execute
// their ranges with the same per-node code and fault decision.
package dist

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Message is a point-to-point message delivered at the next round
// boundary. Payloads must be treated as immutable by both sender and
// receiver.
type Message struct {
	From    graph.ID
	Payload any
}

// Protocol is the per-node state machine of a LOCAL algorithm. The engine
// calls Init once before the first round and Round once per communication
// round until every node reports Done.
type Protocol interface {
	// Init runs before round 1; the node may send its first messages.
	Init(ctx *Context)
	// Round runs once per communication round with the messages sent to
	// this node in the previous round. The inbox slice is only valid for
	// the duration of the call: the engine reuses its backing array.
	Round(ctx *Context, inbox []Message)
	// Done reports whether this node's output is final. Done nodes keep
	// receiving Round calls (LOCAL nodes still relay messages); the run
	// stops when all nodes are simultaneously Done.
	Done() bool
	// Output returns the node's final output.
	Output() any
}

// Quiescent marks Protocol implementations whose Round call with an
// empty inbox is guaranteed to be a no-op: no state change, no sends.
// That holds for choreographies that drain every enabled action at the
// end of each step (so progress is driven entirely by received
// messages). When every node's protocol implements it, the engine skips
// the Round call for nodes with empty inboxes, making idle rounds cost
// O(active nodes) instead of O(n) protocol invocations — with outputs,
// message schedules, and round counts identical by construction.
type Quiescent interface {
	QuiescentRound()
}

// RoundStats is the per-round summary handed to a RoundObserver at each
// round boundary. Every field except Shards is a pure function of
// (graph, protocol) and therefore identical at every worker count and on
// every partitioning; Shards describes the schedule that happened to run
// the round.
type RoundStats struct {
	// Round is the step index: 0 for the Init step, then the 1-based
	// communication round.
	Round int
	// Nodes is the network size.
	Nodes int
	// Shards is the number of shards that ran this round: the worker
	// ranges of the in-process backend (1 with a single worker), or the
	// partition's shard count.
	Shards int
	// Messages counts the point-to-point messages queued during this
	// round (delivered at the next round boundary).
	Messages int
	// Volume sums the payload sizes of those messages (Sizer units;
	// 1 per message otherwise).
	Volume int
	// Done is the number of nodes reporting Done after this round.
	Done int
	// MaxInbox is the largest single next-round inbox fill — the
	// inbox-capacity high-water mark of this round's delivery.
	MaxInbox int
}

// RoundObserver receives engine lifecycle events at round boundaries.
// The engine itself never reads the wall clock (the LOCAL model measures
// time in rounds, and the chordalvet wallclock invariant enforces it);
// an observer that wants wall times stamps these callbacks itself — see
// internal/obs for the canonical implementation.
//
// Concurrency contract: RunStart, RoundStart, RoundEnd, and RunEnd are
// called from the goroutine driving Engine.Run. ShardStart/ShardEnd are
// called from worker goroutines — calls with distinct shard indices may
// be concurrent, and each shard index is used by exactly one goroutine
// per round. Observers are never invoked when the engine's Observer
// field is nil, and a nil observer adds no per-node work to the round
// loop.
type RoundObserver interface {
	// RunStart fires once before the Init step.
	RunStart(nodes, edges int)
	// RoundStart fires before the round's node programs run. shards is
	// the worker-shard count of RoundStats.Shards.
	RoundStart(round, shards int)
	// ShardStart/ShardEnd bracket one worker shard's per-node work
	// within the round (in-process backend only).
	ShardStart(shard int)
	ShardEnd(shard int)
	// RoundEnd fires after the round's messages are delivered.
	RoundEnd(stats RoundStats)
	// RunEnd fires after the final round, with the total round count.
	RunEnd(rounds int)
}

// PhaseSetter is optionally implemented by observers that label trace
// events with caller-defined phases (e.g. "prune-i03", "correction").
// Code that drives several engine runs under one observer sets the phase
// between runs; the engine itself never calls it.
type PhaseSetter interface {
	SetPhase(name string)
}

// KernelObserver is optionally implemented by RoundObservers that want
// per-worker spans from the sharded compute kernels running *outside*
// the round engine: the pruning decide kernel, the per-path coloring and
// MIS-component stages, the correction gate-set setup, and the peeling
// path measurement (internal/peel declares a structurally identical
// interface so it does not have to import this package; one
// implementation satisfies both). Kernels type-assert their
// RoundObserver — a nil or non-implementing observer keeps the
// documented zero-cost fast path, and the assertion itself never
// allocates, so the hotalloc budgets of the kernels are unaffected.
//
// Like RoundObserver, the kernel never reads the wall clock; the
// observer stamps the callbacks itself. items is the number of work
// items (centers, paths, components, groups) the shard processed, so
// imbalance ratios can separate skewed schedules from skewed items.
//
// Concurrency contract: KernelStart and KernelEnd are called from the
// goroutine driving the kernel; KernelShardStart/KernelShardEnd are
// called from worker goroutines — calls with distinct shard indices may
// be concurrent, each shard index used by exactly one goroutine per
// launch, and the kernel's WaitGroup orders every shard callback before
// KernelEnd. Kernel launches never nest under one observer.
type KernelObserver interface {
	// KernelStart fires once per launch, before any shard runs.
	KernelStart(kernel string, shards int)
	// KernelShardStart/KernelShardEnd bracket one worker shard's work.
	KernelShardStart(shard int)
	KernelShardEnd(shard, items int)
	// KernelEnd fires after every shard has finished.
	KernelEnd()
}

// Context is a node's interface to the network during Init/Round calls.
// The outbox stores one entry per Send or Broadcast call: targets[k] is
// the receiver's index for a Send, or broadcastTarget for a Broadcast,
// which collect expands over the neighbor row at delivery. Queue
// positions — the fault schedule's coordinates — are counted over the
// expanded sequence, so the compressed representation is invisible to
// fault plans.
type Context struct {
	id      graph.ID
	idx     int32 // own dense index in the snapshot
	nbrIDs  []graph.ID
	nbrIdx  []int32
	ix      *graph.Indexed
	round   *int32 // engine's current step, shared by all contexts
	outbox  []Message
	targets []int32
}

// broadcastTarget marks an outbox entry addressed to every neighbor.
const broadcastTarget int32 = -1

// ID returns the node's unique identifier.
func (c *Context) ID() graph.ID { return c.id }

// Round returns the current step index: 0 during Init, then the 1-based
// communication round. Rounds are synchronous, so every node observes
// the same value; protocols use it to anchor absolute-expiry flooding
// deadlines without keeping a per-node counter (which would drift for
// Quiescent protocols whose idle Round calls are skipped).
func (c *Context) Round() int { return int(*c.round) }

// Neighbors returns the node's neighbors in increasing ID order. The
// slice is shared with the engine's graph snapshot: treat it as
// read-only.
func (c *Context) Neighbors() []graph.ID { return c.nbrIDs }

// Degree returns the number of neighbors.
func (c *Context) Degree() int { return len(c.nbrIDs) }

// Send queues a message to node to, delivered next round. The hot path —
// sending to a neighbor, the only kind of send the LOCAL model grants for
// free — resolves the target index by binary search over the node's own
// sorted neighbor row instead of the snapshot-wide ID→index map; self
// sends use the precomputed own index; only sends to distant nodes fall
// back to the map lookup.
func (c *Context) Send(to graph.ID, payload any) {
	var j int32
	if p, ok := slices.BinarySearch(c.nbrIDs, to); ok {
		j = c.nbrIdx[p]
	} else if to == c.id {
		j = c.idx
	} else {
		ji, ok := c.ix.IndexOf(to)
		if !ok {
			panic(fmt.Sprintf("dist: node %d sent to %d, which is not a node of the network", c.id, to))
		}
		j = int32(ji)
	}
	c.outbox = append(c.outbox, Message{From: c.id, Payload: payload})
	c.targets = append(c.targets, j)
}

// Broadcast queues the same payload to every neighbor. It stores a
// single outbox entry; delivery expands it over the neighbor row in
// order, exactly as the equivalent sequence of Sends would.
func (c *Context) Broadcast(payload any) {
	if len(c.nbrIdx) == 0 {
		return
	}
	c.outbox = append(c.outbox, Message{From: c.id, Payload: payload})
	c.targets = append(c.targets, broadcastTarget)
}

// receivers returns the receiver indices of outbox entry k: a Send's
// target (stored in one) or, for a Broadcast, the neighbor row.
func (c *Context) receivers(k int, one *[1]int32) []int32 {
	if to := c.targets[k]; to >= 0 {
		one[0] = to
		return one[:]
	}
	return c.nbrIdx
}

// Sizer lets payload types report a size in abstract units (e.g. record
// counts) for bandwidth accounting; payloads without it count as 1 unit.
type Sizer interface {
	PayloadSize() int
}

// Result summarizes a finished run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Outputs maps each node to its protocol output.
	Outputs map[graph.ID]any
	// Messages counts point-to-point messages sent over the whole run.
	Messages int
	// Volume sums payload sizes (Sizer units; 1 per message otherwise).
	// LOCAL allows unbounded messages — this measures what the protocols
	// actually use.
	Volume int

	// Fault accounting (all zero when Engine.Faults is nil): messages
	// dropped / duplicated / dead-lettered by the schedule, and the total
	// synchronizer stall (sum over rounds of the max link delay).
	Dropped     int
	Duplicated  int
	DeadLetters int
	Stall       int
}

// Engine runs the round loop: it executes a Protocol instance on every
// node of a graph, in-process (NewEngine, NewEngineIndexed) or on the
// shards of a Partition (NewCoordinator). Both backends run the same
// round loop, so termination, errors, fault schedules and observer
// events cannot drift between them.
type Engine struct {
	ix *graph.Indexed
	// Observer, when non-nil, receives per-round events (see
	// RoundObserver). Nil — the default — is the zero-cost fast path:
	// no callback, no inbox high-water scan, no extra allocation.
	Observer RoundObserver
	// Faults, when non-nil, attaches a deterministic fault-injection
	// schedule (see Faults). Nil — the default — keeps the unperturbed
	// delivery loop with no per-message decision.
	Faults *Faults
	// SkipOutputs, when true, leaves Result.Outputs nil. Callers that
	// read outputs by index (OutputsByIndex, or their own references to
	// the protocols) set it to skip the n-entry map build.
	SkipOutputs bool

	// ran guards against a second Run: node state is terminal after a
	// run, so rerunning it would report a bogus 0-round success.
	ran bool

	// part, when non-nil, runs every step on a partition's shards; the
	// fields below it belong to the in-process backend.
	part *partStep

	// nodes holds every node's protocol, context, inbox and Done state;
	// next is the inbox buffer collect fills, swapped with nodes.inbox
	// at each step so the backing arrays are reused across rounds.
	nodes nodeRange
	next  [][]Message

	// deliver is collect's per-receiver message-count scratch, used to
	// reserve each inbox exactly once per round instead of growing it by
	// repeated append-doubling; touched is collect's scratch list of
	// this round's receivers.
	deliver []int32
	touched []int32

	// inboxSlab holds the fault-free path's inbox backing arrays: each
	// round's inboxes are carved out of one slab sized by the counting
	// pass, double-buffered in step with the inbox buffers so a slab is
	// never rewritten while its slices are being consumed.
	inboxSlab [2][]Message
	slabIdx   int

	// failMu/failShard/failErr capture the node-program panic of the
	// lowest-index worker shard in the step; workers recover so a
	// panicking node cannot deadlock the pool, and Run surfaces the
	// failure as an error. Shards are ascending index ranges and each
	// stops at its first panic, so the kept failure is the lowest
	// panicking node's at every worker count.
	failMu    sync.Mutex
	failShard int
	failErr   error
}

// NewEngine creates an engine running factory(v) on every node v of g.
func NewEngine(g *graph.Graph, factory func(v graph.ID) Protocol) *Engine {
	return NewEngineIndexed(graph.NewIndexed(g), factory)
}

// NewEngineIndexed creates an engine on an existing snapshot, letting
// callers that run many protocols over the same graph (e.g. iterated
// pruning) pay the snapshot cost once.
func NewEngineIndexed(ix *graph.Indexed, factory func(v graph.ID) Protocol) *Engine {
	e := &Engine{ix: ix}
	n := ix.NumNodes()
	e.nodes.init(ix, 0, n, func(i int) Protocol { return factory(ix.IDOf(i)) })
	e.next = make([][]Message, n)
	return e
}

// roundOut is what one step reports to the round loop: the delivery
// accounting, the termination state after the step, and the shard
// count that ran it.
type roundOut struct {
	shards   int
	msgs     int
	vol      int
	maxInbox int // only computed with an observer attached
	fs       FaultStats
	// done counts nodes reporting Done; deadNotDone counts crashed
	// nodes that are not, and blocked is the smallest such index (-1
	// when none).
	done        int
	deadNotDone int
	blocked     int32
	// wireIn/wireOut are the bytes moved during the step by links that
	// implement WireMeter (metered reports whether any does).
	wireIn, wireOut int64
	metered         bool
}

// Run executes the protocol until every node is Done, or fails after
// maxRounds rounds. It returns the number of rounds executed and each
// node's output. An engine runs at most once: the protocols hold
// terminal state afterwards, so a second Run returns an error instead of
// a bogus 0-round success.
func (e *Engine) Run(maxRounds int) (*Result, error) {
	if e.ran {
		return nil, fmt.Errorf("dist: Engine.Run called twice; protocol state is terminal after a run — build a new engine")
	}
	e.ran = true
	crash, err := newCrashTable(e.ix, e.Faults)
	if err != nil {
		return nil, err
	}
	if e.part != nil {
		if err := e.part.begin(e.Faults, maxRounds); err != nil {
			return nil, err
		}
	} else {
		e.nodes.crash = crash
	}
	n := e.ix.NumNodes()
	obs := e.Observer
	if obs != nil {
		obs.RunStart(n, e.ix.NumEdges())
	}

	res := &Result{}
	out, err := e.round(obs, 0, crash, res)
	for err == nil && out.done != n {
		if out.deadNotDone > 0 && out.done+out.deadNotDone == n {
			return nil, fmt.Errorf("dist: node %d crashed at round %d and cannot finish; all surviving nodes are done",
				e.ix.IDOf(int(out.blocked)), crash[out.blocked])
		}
		if res.Rounds >= maxRounds {
			return nil, fmt.Errorf("protocol did not terminate within %d rounds", maxRounds)
		}
		res.Rounds++
		out, err = e.round(obs, res.Rounds, crash, res)
	}
	if err != nil {
		return nil, err
	}

	if e.part != nil {
		if err := e.part.outputs(); err != nil {
			return nil, err
		}
	}
	if !e.SkipOutputs {
		res.Outputs = make(map[graph.ID]any, n)
		for i, v := range e.ix.IDs() {
			res.Outputs[v] = e.output(i)
		}
	}
	if obs != nil {
		obs.RunEnd(res.Rounds)
	}
	return res, nil
}

// OutputsByIndex returns every node's output by snapshot index. Valid
// after a successful Run, regardless of SkipOutputs.
func (e *Engine) OutputsByIndex() []any {
	if e.part != nil {
		return e.part.outByIdx
	}
	outs := make([]any, len(e.nodes.progs))
	for i := range outs {
		outs[i] = e.output(i)
	}
	return outs
}

// output returns the output of the node at snapshot index i.
func (e *Engine) output(i int) any {
	if e.part != nil {
		return e.part.outByIdx[i]
	}
	return e.nodes.progs[i].Output()
}

// round runs step round on the engine's backend and charges it: the
// result counters, the FaultRound/WireRound callbacks and RoundEnd.
func (e *Engine) round(obs RoundObserver, round int, crash crashTable, res *Result) (roundOut, error) {
	out := roundOut{fs: FaultStats{Round: round, Crashed: crash.crashedAt(e.ix, round)}}
	if e.part != nil {
		if err := e.part.step(obs, round, &out); err != nil {
			return out, err
		}
	} else {
		e.nodes.curRound = int32(round)
		e.nodes.inbox, e.next = e.next, e.nodes.inbox
		out.shards = e.step(obs, round)
		if err := e.failure(); err != nil {
			return out, err
		}
		e.collect(obs, round, &out)
		out.done = int(e.nodes.doneCount.Load())
		out.deadNotDone, out.blocked = e.nodes.blocked(round)
	}

	res.Messages += out.msgs
	res.Volume += out.vol
	if e.Faults.active() && out.fs.any() {
		res.Dropped += out.fs.Dropped
		res.Duplicated += out.fs.Duplicated
		res.DeadLetters += out.fs.DeadLetters
		res.Stall += out.fs.Stall
		if fo, ok := obs.(FaultObserver); ok {
			fo.FaultRound(out.fs)
		}
	}
	if obs != nil {
		if wo, ok := obs.(WireObserver); ok && out.metered {
			wo.WireRound(round, out.wireIn, out.wireOut)
		}
		obs.RoundEnd(RoundStats{
			Round:    round,
			Nodes:    e.ix.NumNodes(),
			Shards:   out.shards,
			Messages: out.msgs,
			Volume:   out.vol,
			Done:     out.done,
			MaxInbox: out.maxInbox,
		})
	}
	return out, nil
}

// step executes step round on every node of the in-process backend and
// returns the worker-shard count it used, so RoundEnd reports the same
// figure RoundStart announced even if GOMAXPROCS changes mid-run. The
// node range is split into at most GOMAXPROCS contiguous shards, so the
// work partition is deterministic; node programs touch only their own
// state and context, so any worker count is race-free and equivalent.
// With one worker the range runs on the calling goroutine. The
// observer's round/shard hooks bracket the work.
//
//chordalvet:hotpath budget=2 engine round loop: runs once per round per protocol
func (e *Engine) step(obs RoundObserver, round int) int {
	n := len(e.nodes.progs)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if obs != nil {
			obs.RoundStart(round, 1)
		}
		e.runShard(obs, round, 0, 0, n)
		return 1
	}
	chunk := (n + workers - 1) / workers
	shards := (n + chunk - 1) / chunk
	if obs != nil {
		obs.RoundStart(round, shards)
	}
	var wg sync.WaitGroup
	shard := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			e.runShard(obs, round, shard, lo, hi)
		}(shard, lo, hi)
		shard++
	}
	wg.Wait()
	return shards
}

// runShard executes one contiguous index range on the calling goroutine,
// bracketing it with the observer's shard hooks and capturing any
// node-program failure.
func (e *Engine) runShard(obs RoundObserver, round, shard, lo, hi int) {
	if obs != nil {
		obs.ShardStart(shard)
	}
	if err := e.nodes.exec(round, lo, hi); err != nil {
		e.recordFailure(shard, err)
	}
	if obs != nil {
		obs.ShardEnd(shard)
	}
}

// recordFailure keeps the node-program failure of the lowest-index
// shard; Run checks for one after every step.
func (e *Engine) recordFailure(shard int, err error) {
	e.failMu.Lock()
	if e.failErr == nil || shard < e.failShard {
		e.failShard, e.failErr = shard, err
	}
	e.failMu.Unlock()
}

// failure returns the captured node-program failure, if any.
func (e *Engine) failure() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// collect moves queued messages into next-round inboxes. Walking senders
// in increasing node index (= increasing ID) order delivers every inbox
// already sorted by (sender, queue position) — the order the legacy
// engine produced with a global stable sort — without sorting. Inbox
// slices are truncated and refilled in place, so steady-state rounds
// allocate nothing. It charges the round's message/volume counts and,
// with an observer attached, the inbox high-water mark to out.
//
// With a fault schedule attached, delivery runs on this single driving
// goroutine in the same (sender, queue position) order, deciding every
// copy with Faults.copies — the decision ShardRunner applies — so each
// message's fault coordinates, and hence the whole schedule, are
// identical at every worker count and on every partitioning. Without
// one, the loop is the original branch-free path.
func (e *Engine) collect(obs RoundObserver, round int, out *roundOut) {
	ctxs, next := e.nodes.ctxs, e.next
	msgs, vol := 0, 0
	if !e.Faults.active() {
		// Counting pass: reserve every receiving inbox at its exact fill
		// before delivering, so a round's delivery performs at most one
		// allocation per inbox whose high-water mark rises (instead of a
		// doubling ramp), and the delivery appends never move memory.
		// Inboxes were truncated as the step consumed them, so only this
		// round's receivers — the touched list — need any work at all.
		if e.deliver == nil {
			e.deliver = make([]int32, len(next))
		}
		cnt := e.deliver
		touched := e.touched[:0]
		total := 0
		for i := range ctxs {
			c := &ctxs[i]
			for _, to := range c.targets {
				if to >= 0 {
					total++
					if cnt[to] == 0 {
						touched = append(touched, to)
					}
					cnt[to]++
					continue
				}
				total += len(c.nbrIdx)
				for _, u := range c.nbrIdx {
					if cnt[u] == 0 {
						touched = append(touched, u)
					}
					cnt[u]++
				}
			}
		}
		e.touched = touched
		e.slabIdx ^= 1
		slab := e.inboxSlab[e.slabIdx]
		if cap(slab) < total {
			slab = make([]Message, 0, total)
			e.inboxSlab[e.slabIdx] = slab
		}
		pos := 0
		for _, to := range touched {
			c := int(cnt[to])
			cnt[to] = 0
			next[to] = slab[pos : pos : pos+c]
			pos += c
		}
		for i := range ctxs {
			c := &ctxs[i]
			for k, msg := range c.outbox {
				sz := 1
				if s, ok := msg.Payload.(Sizer); ok {
					sz = s.PayloadSize()
				}
				if to := c.targets[k]; to >= 0 {
					next[to] = append(next[to], msg)
					msgs++
					vol += sz
					continue
				}
				for _, u := range c.nbrIdx {
					next[u] = append(next[u], msg)
				}
				msgs += len(c.nbrIdx)
				vol += sz * len(c.nbrIdx)
			}
			c.outbox = c.outbox[:0]
			c.targets = c.targets[:0]
		}
	} else {
		for i := range next {
			next[i] = next[i][:0]
		}
		var one [1]int32
		for i := range ctxs {
			c := &ctxs[i]
			// pos is the queue position over the expanded send sequence —
			// a Broadcast counts one position per neighbor — so fault
			// coordinates match the uncompressed outbox exactly.
			pos := 0
			for k, msg := range c.outbox {
				sz := 1
				if s, ok := msg.Payload.(Sizer); ok {
					sz = s.PayloadSize()
				}
				for _, to := range c.receivers(k, &one) {
					for range e.Faults.copies(e.nodes.crash, to, round, i, pos, &out.fs) {
						next[to] = append(next[to], msg)
						msgs++
						vol += sz
					}
					pos++
				}
			}
			c.outbox = c.outbox[:0]
			c.targets = c.targets[:0]
		}
	}
	out.msgs, out.vol = msgs, vol
	if obs != nil {
		for i := range next {
			if len(next[i]) > out.maxInbox {
				out.maxInbox = len(next[i])
			}
		}
	}
}

// nodeRange is the per-node state of one contiguous snapshot-index
// range [lo, lo+len(progs)): the protocols, their contexts, the current
// round's inboxes and the Done bookkeeping. The in-process backend holds
// one range covering the snapshot and splits it over its workers; each
// ShardRunner holds the range it hosts. Both execute every step through
// exec, so the per-node step semantics exist once.
type nodeRange struct {
	lo        int
	progs     []Protocol  // by local offset
	ctxs      []Context   // by local offset
	inbox     [][]Message // the current step's inboxes, by local offset
	crash     crashTable  // by global index; nil without a crash schedule
	quiescent bool        // every protocol implements Quiescent
	curRound  int32       // the step index shared with the contexts

	// done[j] mirrors progs[j].Done() after the node's latest step;
	// doneCount is the number of true entries. Maintained inside exec
	// so termination needs no O(n) rescan per round.
	done      []bool
	doneCount atomic.Int64
}

// init builds the protocols of global indices [lo, hi) with newNode and
// their contexts on ix.
func (r *nodeRange) init(ix *graph.Indexed, lo, hi int, newNode func(i int) Protocol) {
	local := hi - lo
	r.lo = lo
	r.progs = make([]Protocol, local)
	r.ctxs = make([]Context, local)
	r.inbox = make([][]Message, local)
	r.done = make([]bool, local)
	r.quiescent = local > 0
	for j := range r.progs {
		i := lo + j
		r.progs[j] = newNode(i)
		if _, ok := r.progs[j].(Quiescent); !ok {
			r.quiescent = false
		}
		r.ctxs[j] = Context{
			id:     ix.IDOf(i),
			idx:    int32(i),
			nbrIDs: ix.NeighborIDs(i),
			nbrIdx: ix.NeighborIndices(i),
			ix:     ix,
			round:  &r.curRound,
		}
	}
}

// exec runs step round on the local offsets [a, b) in index order:
// Init at step 0, then Round with the node's inbox — truncated as it is
// consumed, so delivery never needs a truncation pass — and nothing on
// crashed nodes. A Quiescent protocol's empty-inbox Round would be a
// no-op, so it is skipped. The Done checks fold into the loop and the
// range's done-delta is published with one atomic add, flushed even on
// panic so partial progress stays counted. A panicking node program
// stops the range and is recovered into an error: a pool worker must
// return normally or its WaitGroup would deadlock the run.
func (r *nodeRange) exec(round, a, b int) (err error) {
	delta := 0
	defer func() {
		if delta != 0 {
			r.doneCount.Add(int64(delta))
		}
		if rec := recover(); rec != nil {
			err = fmt.Errorf("dist: node program panicked: %v", rec)
		}
	}()
	for j := a; j < b; j++ {
		if r.crash.dead(r.lo+j, round) {
			continue
		}
		if round == 0 {
			r.progs[j].Init(&r.ctxs[j])
		} else {
			inbox := r.inbox[j]
			if r.quiescent && len(inbox) == 0 {
				continue
			}
			r.inbox[j] = inbox[:0]
			r.progs[j].Round(&r.ctxs[j], inbox)
		}
		if d := r.progs[j].Done(); d != r.done[j] {
			r.done[j] = d
			if d {
				delta++
			} else {
				delta--
			}
		}
	}
	return nil
}

// blocked counts the range's crashed-but-not-Done nodes after step round
// and returns the smallest such global index (-1 when none): when every
// other node is Done, the run can never terminate.
func (r *nodeRange) blocked(round int) (deadNotDone int, first int32) {
	first = -1
	if r.crash == nil {
		return 0, first
	}
	for j, d := range r.done {
		if !d && r.crash.dead(r.lo+j, round) {
			deadNotDone++
			if first < 0 {
				first = int32(r.lo + j)
			}
		}
	}
	return deadNotDone, first
}
