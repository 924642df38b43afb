package dist

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// partStep is the Engine backend that runs every step on the shards
// behind a Partition's links. The round loop, checks, errors and
// accounting are Engine.Run's; a step here broadcasts Step to every
// shard, routes the cross-shard blocks, delivers, and sums the shards'
// sender-side counters — so traces, experiment tables, and fault plans
// are byte-identical between in-process and partitioned execution (only
// RoundStats.Shards, which describes the schedule and is excluded from
// deterministic trace comparison, reports the shard count instead of
// the worker-pool width).
type partStep struct {
	part    *Partition
	program string
	params  []byte
	prog    Program

	outByIdx        []any
	wireIn, wireOut int64
}

// NewCoordinator returns an engine that runs the named program over ix
// on the partition's shards. The partition's ranges must cover [0, n)
// contiguously. The program is instantiated coordinator-side too — with
// the exact (params, snapshot) every shard receives — to decode outputs.
func NewCoordinator(ix *graph.Indexed, part *Partition, program string, params []byte) (*Engine, error) {
	n := int32(ix.NumNodes())
	if len(part.Links) == 0 || len(part.Links) != len(part.Ranges) {
		return nil, fmt.Errorf("dist: partition has %d links for %d ranges", len(part.Links), len(part.Ranges))
	}
	want := int32(0)
	for s, rg := range part.Ranges {
		if rg.Lo != want || rg.Hi <= rg.Lo {
			return nil, fmt.Errorf("dist: partition range %d is [%d, %d), want contiguous from %d", s, rg.Lo, rg.Hi, want)
		}
		want = rg.Hi
	}
	if want != n {
		return nil, fmt.Errorf("dist: partition covers [0, %d), snapshot has %d nodes", want, n)
	}
	prog, err := NewProgram(program, ix, params)
	if err != nil {
		return nil, err
	}
	return &Engine{ix: ix, part: &partStep{part: part, program: program, params: params, prog: prog}}, nil
}

// begin starts a fresh program run on every shard. It rejects
// hand-built fault plans that did not come from ParseFaults: without
// the (Spec, Seed) pair the schedule cannot be reproduced on the shards.
func (p *partStep) begin(f *Faults, maxRounds int) error {
	faultSpec, faultSeed := "", uint64(0)
	if f.active() {
		if f.Spec == "" {
			return fmt.Errorf("dist: partitioned runs need a ParseFaults-built schedule (hand-built Faults carry no spec to ship to shards)")
		}
		faultSpec, faultSeed = f.Spec, f.Seed
	}
	for s, l := range p.part.Links {
		err := l.Start(ShardConfig{
			Lo: p.part.Ranges[s].Lo, Hi: p.part.Ranges[s].Hi,
			Program: p.program, Params: p.params,
			FaultSpec: faultSpec, FaultSeed: faultSeed,
			MaxRounds: maxRounds,
		})
		if err != nil {
			return err
		}
	}
	p.meterDelta() // baseline: Start/Session traffic is not a round's
	return nil
}

// meterDelta samples every metered link and returns the bytes moved
// since the previous sample.
func (p *partStep) meterDelta() (dIn, dOut int64, metered bool) {
	var in, out int64
	for _, l := range p.part.Links {
		if m, ok := l.(WireMeter); ok {
			metered = true
			li, lo := m.WireBytes()
			in += li
			out += lo
		}
	}
	dIn, dOut = in-p.wireIn, out-p.wireOut
	p.wireIn, p.wireOut = in, out
	return dIn, dOut, metered
}

// step runs one partitioned step: broadcast Step to every shard, await
// results in shard order, route the cross-shard blocks, deliver, and
// await the inbox high-water acks. A node-program failure is the lowest
// shard's — its lowest panicking node, as in the in-process backend.
func (p *partStep) step(obs RoundObserver, round int, out *roundOut) error {
	links := p.part.Links
	out.shards = len(links)
	if obs != nil {
		obs.RoundStart(round, len(links))
	}
	for _, l := range links {
		if err := l.Step(round); err != nil {
			return err
		}
	}
	results := make([]*ShardStepResult, len(links))
	var failure error
	for s, l := range links {
		r, err := l.StepResult()
		if err != nil {
			return err
		}
		if r.Err != "" && failure == nil {
			failure = errors.New(r.Err)
		}
		results[s] = r
	}
	if failure != nil {
		return failure
	}

	out.blocked = -1
	for _, r := range results {
		out.done += r.Done
		out.deadNotDone += r.DeadNotDone
		if r.BlockedIdx >= 0 && out.blocked < 0 {
			out.blocked = r.BlockedIdx
		}
		out.msgs += r.Messages
		out.vol += r.Volume
		out.fs.Dropped += r.Dropped
		out.fs.Duplicated += r.Duplicated
		out.fs.DeadLetters += r.DeadLetters
		if r.Stall > out.fs.Stall {
			out.fs.Stall = r.Stall
		}
	}

	// Route: for each destination shard, concatenate the per-source
	// blocks in shard order. Source blocks are in sender order and
	// shards are ascending contiguous ranges, so each destination
	// receives its copies in global sender order.
	route := make([][]PartMsg, len(links))
	for _, r := range results {
		for _, m := range r.Msgs {
			d := p.part.shardOf(m.To)
			route[d] = append(route[d], m)
		}
	}
	for s, l := range links {
		if err := l.Deliver(round, route[s]); err != nil {
			return err
		}
	}
	for _, l := range links {
		mi, err := l.DeliverResult()
		if err != nil {
			return err
		}
		if mi > out.maxInbox {
			out.maxInbox = mi
		}
	}
	if obs != nil {
		out.wireIn, out.wireOut, out.metered = p.meterDelta()
	}
	return nil
}

// outputs fetches and decodes every node's output by snapshot index.
func (p *partStep) outputs() error {
	p.outByIdx = make([]any, p.part.Ranges[len(p.part.Ranges)-1].Hi)
	for s, l := range p.part.Links {
		data, err := l.Outputs()
		if err != nil {
			return err
		}
		rg := p.part.Ranges[s]
		if len(data) != int(rg.Hi-rg.Lo) {
			return fmt.Errorf("dist: shard %d returned %d outputs for range [%d, %d)", s, len(data), rg.Lo, rg.Hi)
		}
		for j, d := range data {
			i := int(rg.Lo) + j
			o, err := p.prog.DecodeOutput(i, d)
			if err != nil {
				return fmt.Errorf("dist: output decoding failed for index %d: %w", i, err)
			}
			p.outByIdx[i] = o
		}
	}
	return nil
}
