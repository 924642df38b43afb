package dist

import (
	"fmt"

	"repro/internal/graph"
)

// ShardRunner hosts one contiguous node range of a partitioned run. It
// executes the range's protocols step by step under the coordinator's
// direction with the in-process engine's per-node code (nodeRange.exec:
// nodes in index order, inboxes truncated as they are consumed,
// Quiescent protocols skipping empty-inbox rounds, crashed nodes
// stopped), and routes every outgoing copy through the fault decision
// (Faults.copies) sender-side with global coordinates.
type ShardRunner struct {
	ix   *graph.Indexed
	hi   int32
	prog Program

	nodes  nodeRange
	faults *Faults

	staged [][]Message // by local offset; local-destination copies of the step
	out    []PartMsg

	stepped bool // a step ran since the last Deliver (barrier misuse guard)
}

// NewShardRunner builds a runner for range [cfg.Lo, cfg.Hi) of ix. The
// fault schedule is re-parsed locally from (FaultSpec, FaultSeed) — it
// is a pure function of the pair, so every shard and the coordinator
// decide identically without shipping schedule state.
func NewShardRunner(ix *graph.Indexed, cfg ShardConfig) (*ShardRunner, error) {
	n := ix.NumNodes()
	if cfg.Lo < 0 || cfg.Hi > int32(n) || cfg.Lo >= cfg.Hi {
		return nil, fmt.Errorf("dist: shard range [%d, %d) invalid for %d nodes", cfg.Lo, cfg.Hi, n)
	}
	prog, err := NewProgram(cfg.Program, ix, cfg.Params)
	if err != nil {
		return nil, err
	}
	r := &ShardRunner{ix: ix, hi: cfg.Hi, prog: prog}
	if cfg.FaultSpec != "" {
		if r.faults, err = ParseFaults(cfg.FaultSpec, cfg.FaultSeed); err != nil {
			return nil, err
		}
	}
	crash, err := newCrashTable(ix, r.faults)
	if err != nil {
		return nil, err
	}
	r.nodes.init(ix, int(cfg.Lo), int(cfg.Hi), prog.NewNode)
	r.nodes.crash = crash
	r.staged = make([][]Message, cfg.Hi-cfg.Lo)
	return r, nil
}

// Step executes step round (0 = Init) on every live local node and
// routes the outboxes: local-destination copies are staged for the
// coming Deliver, remote copies are returned in sender order. All
// delivery accounting — including drops, duplicates, dead letters, and
// stall — is charged here, sender-side, so the coordinator's sums equal
// the in-process engine's counters field for field.
func (r *ShardRunner) Step(round int) *ShardStepResult {
	r.nodes.curRound = int32(round)
	r.stepped = true
	res := &ShardStepResult{Round: round, BlockedIdx: -1}
	if err := r.nodes.exec(round, 0, len(r.nodes.progs)); err != nil {
		res.Err = err.Error()
		return res
	}
	r.route(round, res)
	res.Done = int(r.nodes.doneCount.Load())
	res.DeadNotDone, res.BlockedIdx = r.nodes.blocked(round)
	return res
}

// route walks the step's outboxes in sender order, expanding broadcasts
// over neighbor rows, and delivers each copy through the fault decision
// with global (round, sender, queue position) coordinates — the
// in-process engine's delivery pass, with remote copies encoded instead
// of appended.
func (r *ShardRunner) route(round int, res *ShardStepResult) {
	r.out = r.out[:0]
	lo := int32(r.nodes.lo)
	var fs FaultStats
	var one [1]int32
	for j := range r.nodes.ctxs {
		c := &r.nodes.ctxs[j]
		sender := r.nodes.lo + j
		pos := 0
		var encErr error
		for k, msg := range c.outbox {
			sz := 1
			if s, ok := msg.Payload.(Sizer); ok {
				sz = s.PayloadSize()
			}
			var enc []byte // lazily encoded once per outbox entry
			for _, to := range c.receivers(k, &one) {
				for range r.faults.copies(r.nodes.crash, to, round, sender, pos, &fs) {
					if to >= lo && to < r.hi {
						r.staged[to-lo] = append(r.staged[to-lo], msg)
					} else {
						if enc == nil && encErr == nil {
							enc, encErr = r.prog.EncodePayload(msg.Payload)
						}
						r.out = append(r.out, PartMsg{From: int32(sender), To: to, Data: enc})
					}
					res.Messages++
					res.Volume += sz
				}
				pos++
			}
		}
		c.outbox = c.outbox[:0]
		c.targets = c.targets[:0]
		if encErr != nil && res.Err == "" {
			res.Err = fmt.Sprintf("dist: shard payload encoding failed: %v", encErr)
		}
	}
	res.Dropped, res.Duplicated, res.DeadLetters, res.Stall = fs.Dropped, fs.Duplicated, fs.DeadLetters, fs.Stall
	res.Msgs = r.out
}

// Deliver fills the next round's inboxes from the remote copies the
// coordinator routed here plus the locally staged block. incoming is in
// global sender order and contains no local senders, so it splits at
// the first sender ≥ hi: lower-shard copies, then the staged local
// block, then higher-shard copies — exactly the (sender, queue
// position) order the in-process engine delivers. Returns the post-delivery
// inbox high-water mark.
func (r *ShardRunner) Deliver(incoming []PartMsg) (int, error) {
	if !r.stepped {
		return 0, fmt.Errorf("dist: shard Deliver without a preceding Step")
	}
	r.stepped = false
	lo, inbox := int32(r.nodes.lo), r.nodes.inbox
	split := len(incoming)
	for i, m := range incoming {
		if m.From >= r.hi {
			split = i
			break
		}
	}
	appendRemote := func(msgs []PartMsg) error {
		for _, m := range msgs {
			if m.To < lo || m.To >= r.hi {
				return fmt.Errorf("dist: misrouted message for index %d on shard [%d, %d)", m.To, lo, r.hi)
			}
			pl, err := r.prog.DecodePayload(m.Data)
			if err != nil {
				return fmt.Errorf("dist: shard payload decoding failed: %w", err)
			}
			off := m.To - lo
			inbox[off] = append(inbox[off], Message{From: r.ix.IDOf(int(m.From)), Payload: pl})
		}
		return nil
	}
	if err := appendRemote(incoming[:split]); err != nil {
		return 0, err
	}
	for j := range r.staged {
		if len(r.staged[j]) > 0 {
			inbox[j] = append(inbox[j], r.staged[j]...)
			r.staged[j] = r.staged[j][:0]
		}
	}
	if err := appendRemote(incoming[split:]); err != nil {
		return 0, err
	}
	maxInbox := 0
	for j := range inbox {
		if len(inbox[j]) > maxInbox {
			maxInbox = len(inbox[j])
		}
	}
	return maxInbox, nil
}

// Outputs encodes every local node's final output, by local offset.
func (r *ShardRunner) Outputs() ([][]byte, error) {
	out := make([][]byte, len(r.nodes.progs))
	for j, p := range r.nodes.progs {
		data, err := r.prog.EncodeOutput(r.nodes.lo+j, p)
		if err != nil {
			return nil, fmt.Errorf("dist: shard output encoding failed for index %d: %w", r.nodes.lo+j, err)
		}
		out[j] = data
	}
	return out, nil
}
