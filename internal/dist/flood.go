package dist

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Knowledge is what a node has learned after r rounds of flooding: the
// set of nodes at distance at most r, with distances. A record is one
// snapshot index — identity and adjacency resolve through the engine's
// CSR snapshot, annotations through the flood run's note table — so the
// record store holds no pointers and costs 4 B per record. Records are
// stored in discovery order (distances nondecreasing, center first), and
// distances are sphere end offsets into that order rather than a value
// per record. Knowledge is not safe for concurrent use.
type Knowledge struct {
	Center graph.ID
	Radius int
	// recs holds the known nodes' snapshot indices in discovery order.
	recs []int32
	// ends[h] is the end offset in recs of the sphere at distance h, so
	// the records learned at distance h are recs[ends[h-1]:ends[h]]
	// (ends[0] = 1: the center). One entry per hop up to the last hop
	// that learned something; a hop that learned nothing — possible
	// only under faults — repeats the previous offset.
	ends []int32
	// notes is the flood run's note table by snapshot index (nil when
	// the run had no annotations), shared by every Knowledge of the run.
	// The run copies the caller's table once, so notes read as of the
	// flood even when the caller rewrites its table afterwards.
	notes []any
	// seen is the flood protocol's dense dedup bitmap by snapshot index,
	// handed over to the knowledge it built (nil in the sparse-set
	// regime and for retransmitted knowledge). KnownIdx and
	// CoversComponent test membership against it.
	seen []uint64
	// known is the sparse dedup set by snapshot index — the big-n
	// counterpart of seen, populated by the flood protocol above
	// seenBitmapMaxN and by the retransmitting protocol's rebuild.
	known IdxSet
	// snap is the engine snapshot the flood ran on; every accessor
	// resolves records through it.
	snap *graph.Indexed
	// pos maps a snapshot index to its record position, built on the
	// first DistOf call: only the by-ID distance lookup needs it.
	pos IdxMap
}

// Size returns the number of known nodes (the center counts).
func (k *Knowledge) Size() int { return len(k.recs) }

// RecordCount returns the number of records.
func (k *Knowledge) RecordCount() int { return len(k.recs) }

// distAt returns the distance of the record at position i: the first
// sphere whose end offset lies beyond i.
func (k *Knowledge) distAt(i int) int32 {
	h, _ := slices.BinarySearch(k.ends, int32(i)+1)
	return int32(h)
}

// RecordAt returns record i's snapshot index and its hop distance from
// the center. Records are in nondecreasing-distance discovery order
// with the center first.
func (k *Knowledge) RecordAt(i int) (idx int32, dist int32) {
	return k.recs[i], k.distAt(i)
}

// RecordsWithin returns the snapshot indices of the known nodes at
// distance at most r, in discovery order — a prefix of the record
// store, implementing view.Source. The result is a shared view: treat
// it as read-only.
func (k *Knowledge) RecordsWithin(r int) []int32 {
	switch {
	case r < 0:
		return k.recs[:0]
	case r >= len(k.ends):
		return k.recs
	}
	return k.recs[:k.ends[r]]
}

// KnownIdx reports whether the node at snapshot index i is within the
// collected ball: one bit test in the dense-bitmap regime, one probe of
// the sparse index set otherwise.
func (k *Knowledge) KnownIdx(i int32) bool {
	if k.seen != nil {
		return k.seen[i>>6]&(1<<(uint(i)&63)) != 0
	}
	return k.known.Has(i)
}

// Known reports whether v is within the collected ball.
func (k *Knowledge) Known(v graph.ID) bool {
	i, ok := k.snap.IndexOf(v)
	return ok && k.KnownIdx(int32(i))
}

// DistOf returns the distance from the center to v, and whether v is
// known.
func (k *Knowledge) DistOf(v graph.ID) (int, bool) {
	i, ok := k.snap.IndexOf(v)
	if !ok || !k.KnownIdx(int32(i)) {
		return 0, false
	}
	if k.pos.Len() == 0 {
		for p, idx := range k.recs {
			k.pos.Put(idx, int32(p))
		}
	}
	p, _ := k.pos.Get(int32(i))
	return int(k.distAt(int(p))), true
}

// Note returns the annotation of a known node as of the flood (nil if
// unknown or unannotated).
func (k *Knowledge) Note(v graph.ID) any {
	i, ok := k.snap.IndexOf(v)
	if !ok || k.notes == nil || !k.KnownIdx(int32(i)) {
		return nil
	}
	return k.notes[i]
}

// CoversComponent reports whether the knowledge provably covers the
// center's entire connected component: the known set is closed under
// adjacency (every known node's full adjacency list is known), which
// for a set containing the center means it IS the component. The
// closure criterion handles the boundary cases a quiescence test
// ("maxDist < Radius") gets wrong — a radius-0 flood on an isolated
// node has maxDist == Radius == 0 yet covers its component, and a ball
// that fills its component on exactly the last hop does too — and,
// unlike quiescence, it stays sound when the flood ran under message
// loss: a drop-truncated ball also quiesces early, but any strict
// subset of a connected component has a member whose adjacency names
// an absent node, so the closure scan reports it uncovered instead of
// letting corrupted knowledge masquerade as complete. Records are
// scanned frontier-first (reverse discovery order): a clipped ball's
// unknown neighbors hang off the last hop, so the common negative
// answer stays near-O(1). False means only that the ball was clipped,
// never that coverage is uncertain. The scan runs in snapshot-index
// space against the flood's own membership structure, so the pruning
// phase — which calls this once per undecided center per iteration —
// allocates nothing here.
func (k *Knowledge) CoversComponent() bool {
	// The bitmap test is spelled out rather than calling KnownIdx, which
	// is too large to inline: this loop runs once per record neighbor.
	if k.seen != nil {
		for i := len(k.recs) - 1; i >= 0; i-- {
			for _, u := range k.snap.NeighborIndices(int(k.recs[i])) {
				if k.seen[u>>6]&(1<<(uint(u)&63)) == 0 {
					return false
				}
			}
		}
		return true
	}
	for i := len(k.recs) - 1; i >= 0; i-- {
		for _, u := range k.snap.NeighborIndices(int(k.recs[i])) {
			if !k.known.Has(u) {
				return false
			}
		}
	}
	return true
}

// BallGraph returns the subgraph induced by the known nodes at distance at
// most r from the center. Because every node's adjacency resolves
// through the snapshot, the induced subgraph is exact for r <= Radius.
func (k *Knowledge) BallGraph(r int) *graph.Graph {
	return k.FilteredBallGraph(r, func(graph.ID) bool { return true })
}

// FilteredBallGraph returns the subgraph induced by the known nodes at
// distance at most r that satisfy keep — equivalent to
// BallGraph(r).InducedSubgraph of the kept nodes, built in one pass
// over the record prefix within r.
//
//chordalvet:coldpath map-built ball graph, used only on the radius<2 decide fallback
func (k *Knowledge) FilteredBallGraph(r int, keep func(graph.ID) bool) *graph.Graph {
	g := graph.New()
	recs := k.RecordsWithin(r)
	ids := k.snap.IDs()
	var in IdxSet
	in.Reserve(len(recs))
	for _, i := range recs {
		if keep(ids[i]) {
			g.AddNode(ids[i])
			in.Add(i)
		}
	}
	for _, i := range recs {
		if !in.Has(i) {
			continue
		}
		for _, u := range k.snap.NeighborIndices(int(i)) {
			if in.Has(u) {
				g.AddEdge(ids[i], ids[u])
			}
		}
	}
	return g
}

// infoBatch is the flood message payload: the snapshot indices of the
// records a node learned in the previous round. Its size is its record
// count. Batches travel as *infoBatch so queueing a payload never boxes
// a slice header into an allocation.
type infoBatch []int32

// PayloadSize implements Sizer.
func (b *infoBatch) PayloadSize() int { return len(*b) }

// seenBitmapMaxN bounds the graphs for which flood protocols dedup with a
// dense per-node bitmap (n²/8 bytes network-wide; 32 MB at the bound).
// Larger networks dedup with a sparse open-addressing set of snapshot
// indices sized by the ball, which costs nothing extra when balls are
// small relative to n — the only regime in which such networks are
// floodable at all.
const seenBitmapMaxN = 1 << 14

// floodProtocol implements incremental full-information flooding: each
// round a node forwards only the records it learned in the previous
// round, so total communication is proportional to the knowledge
// gathered rather than quadratic in it. Fresh records are the tail of the
// knowledge's record slice appended this round; the outgoing batch is a
// capacity-capped view of that tail, so no separate fresh buffer exists.
// The two batch headers alternate because a header written in round r is
// read by neighbors in round r+1 and is dead by round r+2.
type floodProtocol struct {
	radius int
	round  int
	know   *Knowledge
	batch  [2]infoBatch
	seen   []uint64 // dense dedup bitmap by snapshot index; nil for big n
}

// newFloodProtocol builds node idx's flood state; notes is the run's
// shared note table (nil = no annotations).
func newFloodProtocol(idx int, ix *graph.Indexed, notes []any, radius, sizeHint int) *floodProtocol {
	n := ix.NumNodes()
	k := &Knowledge{
		Center: ix.IDOf(idx),
		Radius: radius,
		recs:   append(make([]int32, 0, sizeHint), int32(idx)),
		ends:   append(make([]int32, 0, min(radius, maxSphereHint)+1), 1),
		notes:  notes,
		snap:   ix,
	}
	p := &floodProtocol{radius: radius, know: k}
	if n <= seenBitmapMaxN {
		p.seen = make([]uint64, (n+63)/64)
		p.seen[idx>>6] |= 1 << (uint(idx) & 63)
		// The knowledge shares the bitmap: after the run it serves as
		// the index-space membership test (CoversComponent, KnownIdx).
		k.seen = p.seen
	} else {
		// Big-n regime: dedup with the knowledge's own sparse index set,
		// which doubles as its membership test after the run.
		k.known.Reserve(sizeHint)
		k.known.Add(int32(idx))
	}
	p.batch[0] = infoBatch(k.recs[0:1:1])
	return p
}

func (p *floodProtocol) Init(ctx *Context) {
	if p.radius > 0 {
		ctx.Broadcast(&p.batch[0])
	}
}

// Round dedups the inbox into the record store and forwards the fresh
// tail.
//
//chordalvet:hotpath budget=5 flood step: records are pointer-free indices appended in place
func (p *floodProtocol) Round(ctx *Context, inbox []Message) {
	if p.round >= p.radius {
		return
	}
	p.round++
	k := p.know
	start := len(k.recs)
	for _, m := range inbox {
		for _, idx := range *m.Payload.(*infoBatch) {
			if p.seen != nil {
				w, b := idx>>6, uint64(1)<<(uint(idx)&63)
				if p.seen[w]&b != 0 {
					continue
				}
				p.seen[w] |= b
			} else if !k.known.Add(idx) {
				continue
			}
			k.recs = append(k.recs, idx)
		}
	}
	if len(k.recs) > start {
		// Close the sphere of this hop, padding any empty hops before it.
		for len(k.ends) <= p.round {
			k.ends = append(k.ends, int32(start))
		}
		k.ends[p.round] = int32(len(k.recs))
		if p.round < p.radius {
			cur := p.round % 2
			p.batch[cur] = infoBatch(k.recs[start:len(k.recs):len(k.recs)])
			ctx.Broadcast(&p.batch[cur])
		}
	}
}

func (p *floodProtocol) Done() bool  { return p.round >= p.radius }
func (p *floodProtocol) Output() any { return p.know }

// maxSphereHint caps the presized sphere-offset count: one allocation
// covers balls up to this many hops deep, and deeper balls grow the
// slice instead of every node reserving radius+1 offsets.
const maxSphereHint = 15

// maxBallHint caps the per-node presize so a mis-estimate can never
// front-load more memory than the flood would actually gather; slices
// and maps simply grow past it when balls really are larger.
const maxBallHint = 1 << 12

// ballSizeHint estimates |Γ^radius[v]| for presizing knowledge storage:
// the node's own degree for the first hop, average-degree growth after
// that, capped at n and at maxBallHint. Using the average rather than
// the maximum degree matters at scale — one hub must not inflate every
// node's presize. Only a capacity hint; correctness never depends on it.
func ballSizeHint(deg, avgDeg, radius, n int) int {
	if deg == 0 || radius == 0 {
		return 1
	}
	grow := avgDeg - 1
	if grow < 1 {
		grow = 1
	}
	s, f := 1, deg
	for r := 0; r < radius; r++ {
		s += f
		if s >= n || s >= maxBallHint {
			break
		}
		if f > n/grow {
			f = n
		} else {
			f *= grow
		}
	}
	if s > n {
		s = n
	}
	if s > maxBallHint {
		s = maxBallHint
	}
	return s
}

// CollectBalls runs full-information flooding for radius rounds on g, with
// optional per-node annotations, and returns each node's Knowledge. The
// second return value is the number of communication rounds used (always
// radius).
func CollectBalls(g *graph.Graph, radius int, notes map[graph.ID]any) (map[graph.ID]*Knowledge, int, error) {
	out, res, err := CollectBallsStats(g, radius, notes)
	if err != nil {
		return nil, 0, err
	}
	return out, res.Rounds, nil
}

// CollectBallsStats is CollectBalls with the full engine result (rounds,
// message count, volume in flood records) for bandwidth measurements.
func CollectBallsStats(g *graph.Graph, radius int, notes map[graph.ID]any) (map[graph.ID]*Knowledge, *Result, error) {
	return CollectBallsIndexed(graph.NewIndexed(g), radius, notes)
}

// CollectBallsIndexed is CollectBallsStats on an existing snapshot,
// letting iterated callers (the pruning phase) pay the snapshot cost
// once.
func CollectBallsIndexed(ix *graph.Indexed, radius int, notes map[graph.ID]any) (map[graph.ID]*Knowledge, *Result, error) {
	return CollectBallsIndexedObserved(ix, radius, notes, nil)
}

// CollectBallsIndexedObserved is CollectBallsIndexed with a RoundObserver
// attached to the flooding engine (nil behaves exactly like
// CollectBallsIndexed).
func CollectBallsIndexedObserved(ix *graph.Indexed, radius int, notes map[graph.ID]any, o RoundObserver) (map[graph.ID]*Knowledge, *Result, error) {
	return CollectBallsIndexedFaulty(ix, radius, notes, o, nil)
}

// CollectBallsIndexedFaulty is CollectBallsIndexedObserved with a fault
// schedule attached to the flooding engine. The protocol itself has no
// retransmission: duplicates are absorbed by its dedup and delays by the
// round-synchronous model, but drops silently shrink the collected balls
// and crashes surface as engine errors — callers that must survive drops
// use CollectBallsRetrans instead.
func CollectBallsIndexedFaulty(ix *graph.Indexed, radius int, notes map[graph.ID]any, o RoundObserver, f *Faults) (map[graph.ID]*Knowledge, *Result, error) {
	ks, res, err := collectBalls(ix, radius, noteTable(ix, notes), o, f, false)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[graph.ID]*Knowledge, len(ks))
	for i, v := range ix.IDs() {
		out[v] = ks[i]
	}
	return out, res, nil
}

// noteTable converts an ID-keyed note map into a by-index note table
// (nil when there are no notes).
func noteTable(ix *graph.Indexed, notes map[graph.ID]any) []any {
	if len(notes) == 0 {
		return nil
	}
	table := make([]any, ix.NumNodes())
	for v, note := range notes {
		if i, ok := ix.IndexOf(v); ok {
			table[i] = note
		}
	}
	return table
}

// CollectBallsByIndex is the index-space collection path: notes[i]
// annotates the node at snapshot index i (a nil slice means no
// annotations), and the returned knowledge slice is indexed the same
// way. The ID-keyed variants above are wrappers over it; iterated
// big-n callers — the pruning phase floods a million-node snapshot once
// per iteration — use it directly, so neither an n-entry note map nor
// an n-entry output map is ever built. The run keeps its own copy of
// notes, so the caller may rewrite the table once the call returns.
func CollectBallsByIndex(ix *graph.Indexed, radius int, notes []any, o RoundObserver, f *Faults) ([]*Knowledge, *Result, error) {
	return collectBalls(ix, radius, slices.Clone(notes), o, f, true)
}

// collectBalls runs the flood engine and hands each node's knowledge
// back by snapshot index; notes becomes the run's shared note table and
// must not change afterwards. skipOutputs elides the engine's ID-keyed
// Result.Outputs map (the protocols themselves are the by-index output
// channel); the ID-keyed wrappers keep it populated for callers that
// read the Result directly.
func collectBalls(ix *graph.Indexed, radius int, notes []any, o RoundObserver, f *Faults, skipOutputs bool) ([]*Knowledge, *Result, error) {
	n := ix.NumNodes()
	avgDeg := 0
	if n > 0 {
		avgDeg = 2 * ix.NumEdges() / n
	}
	ps := make([]*floodProtocol, n)
	eng := NewEngineIndexed(ix, func(v graph.ID) Protocol {
		i, _ := ix.IndexOf(v)
		hint := ballSizeHint(ix.Degree(i), avgDeg, radius, n)
		ps[i] = newFloodProtocol(i, ix, notes, radius, hint)
		return ps[i]
	})
	eng.Observer = o
	eng.Faults = f
	eng.SkipOutputs = skipOutputs
	res, err := eng.Run(radius + 1)
	if err != nil {
		return nil, nil, fmt.Errorf("flooding: %w", err)
	}
	out := make([]*Knowledge, n)
	for i, p := range ps {
		out[i] = p.know
	}
	return out, res, nil
}
