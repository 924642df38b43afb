// Package view provides reusable CSR views of ball graphs in
// snapshot-index space for the pruning phase's decide kernel.
//
// The decide stage of the distributed pruning phase (Algorithm 2/6)
// historically materialized each center's ball as a fresh map-backed
// graph.Graph (Knowledge.FilteredBallGraph) before deciding. A Ball is
// the allocation-lean replacement: a compact CSR over dense rows,
// rebuilt in place from either a Knowledge's records (Source) or a
// filtered graph.Indexed snapshot, with O(1) amortized reset via
// epoch-stamped membership marks. All per-ball state lives in the Ball
// and its companion Scratch, so one pair per worker serves every center
// that worker decides, across all iterations, without further
// allocation once warm.
//
// Rows preserve the builder's deterministic order (record discovery
// order for Source builds, snapshot-index order for Indexed builds) and
// each row's columns preserve the source adjacency order (ascending
// snapshot index), so every consumer sees the same view on every run.
package view

import (
	"repro/internal/graph"
)

// Source is a ball's record store: the snapshot indices of its nodes in
// nondecreasing-distance discovery order, served as the prefix within a
// radius. Rows resolve through the snapshot the records index into.
// dist.Knowledge implements it.
type Source interface {
	RecordsWithin(radius int) []int32
}

// Ball is a reusable CSR view of one ball graph. Rows are dense local
// indices; Nodes maps each row back to its snapshot index, and each
// row's columns are the ROWS of its neighbors inside the ball, so BFS
// and induced-subgraph extraction run on plain arrays with no lookups.
//
// The zero value is ready to use; Build* methods reset and refill it.
// A built Ball is read-only until the next Build*: Nodes and Row return
// shared views into its storage.
type Ball struct {
	nodes  []int32 // row -> snapshot index
	rowPtr []int32 // len(nodes)+1 offsets into cols
	cols   []int32 // neighbor rows, concatenated per row

	// rowOf inverts nodes (snapshot index -> row); an entry is valid
	// only when mark holds the current epoch, so reset is O(1) instead
	// of O(n). The epoch is int64: it only ever increments, and at a
	// billion rebuilds per second it would take centuries to wrap, so
	// no wrap guard (and no periodic O(n) mark sweep) is needed.
	rowOf []int32
	mark  []int64
	epoch int64
}

// reset prepares the ball for a rebuild over a snapshot of n nodes.
func (b *Ball) reset(n int) {
	if len(b.rowOf) < n {
		b.rowOf = make([]int32, n)
		b.mark = make([]int64, n)
	}
	b.epoch++
	b.nodes = b.nodes[:0]
	b.cols = b.cols[:0]
	if b.rowPtr == nil {
		b.rowPtr = make([]int32, 1, 64)
	}
	b.rowPtr = b.rowPtr[:1]
	b.rowPtr[0] = 0
}

// NumRows returns the number of nodes in the ball.
func (b *Ball) NumRows() int { return len(b.nodes) }

// Nodes returns the row -> snapshot-index table. The result is a shared
// view into the ball's storage: treat it as read-only.
func (b *Ball) Nodes() []int32 { return b.nodes }

// NodeAt returns the snapshot index of row r.
func (b *Ball) NodeAt(r int32) int32 { return b.nodes[r] }

// Row returns row r's neighbor rows. The result is a shared view into
// the ball's storage: treat it as read-only.
func (b *Ball) Row(r int32) []int32 { return b.cols[b.rowPtr[r]:b.rowPtr[r+1]] }

// RowOf returns the row of the node at snapshot index idx, or -1 when
// the node is not in the ball.
func (b *Ball) RowOf(idx int32) int32 {
	if b.mark[idx] != b.epoch {
		return -1
	}
	return b.rowOf[idx]
}

// BuildFromSource rebuilds the ball from a record store: the nodes at
// record distance at most radius that pass keep (nil keeps all; keep is
// indexed by snapshot index), with the snapshot's adjacency restricted
// to that member set — the index-space equivalent of
// Knowledge.FilteredBallGraph. Rows are in record order; duplicate
// records keep their first occurrence.
//
//chordalvet:hotpath budget=6 view rebuild: epoch reset keeps rebuilds allocation-free steady-state
func (b *Ball) BuildFromSource(src Source, ix *graph.Indexed, radius int, keep []bool) {
	b.reset(ix.NumNodes())
	for _, idx := range src.RecordsWithin(radius) {
		if keep != nil && !keep[idx] {
			continue
		}
		if b.mark[idx] == b.epoch {
			continue
		}
		b.addRow(idx)
	}
	b.fillRows(ix)
}

// BuildFromIndexed rebuilds the ball as the subgraph of a snapshot
// induced by the kept indices (nil keeps all). Rows are in snapshot
// order, so row order coincides with ascending node ID.
//
//chordalvet:hotpath budget=6 view rebuild: epoch reset keeps rebuilds allocation-free steady-state
func (b *Ball) BuildFromIndexed(ix *graph.Indexed, keep []bool) {
	n := ix.NumNodes()
	b.reset(n)
	for i := 0; i < n; i++ {
		if keep != nil && !keep[i] {
			continue
		}
		b.addRow(int32(i))
	}
	b.fillRows(ix)
}

// addRow makes the node at snapshot index idx the next row.
func (b *Ball) addRow(idx int32) {
	b.mark[idx] = b.epoch
	b.rowOf[idx] = int32(len(b.nodes))
	b.nodes = append(b.nodes, idx)
}

// fillRows builds every row's columns from the snapshot's adjacency,
// keeping the neighbors that are rows.
func (b *Ball) fillRows(ix *graph.Indexed) {
	for _, idx := range b.nodes {
		for _, u := range ix.NeighborIndices(int(idx)) {
			if b.mark[u] == b.epoch {
				b.cols = append(b.cols, b.rowOf[u])
			}
		}
		b.rowPtr = append(b.rowPtr, int32(len(b.cols)))
	}
}

// InducedGraph materializes the subgraph of the ball induced by the
// given member rows as a *graph.Graph over original node IDs (ids is
// the snapshot's index -> ID table). The decide kernel uses it only on
// the rare α-rule path, where the independence-number routine needs a
// real graph; everything hot stays inside the CSR.
//
//chordalvet:coldpath α-rule materialization only, amortized over few paths per run
func (b *Ball) InducedGraph(ids []graph.ID, rows []int32) *graph.Graph {
	g := graph.New()
	in := make([]bool, b.NumRows())
	for _, r := range rows {
		in[r] = true
		g.AddNode(ids[b.nodes[r]])
	}
	for _, r := range rows {
		u := ids[b.nodes[r]]
		for _, nb := range b.Row(r) {
			if nb > r && in[nb] {
				g.AddEdge(u, ids[b.nodes[nb]])
			}
		}
	}
	return g
}

// Scratch bundles a worker-private Ball with the BFS working storage
// the decide kernel needs alongside it: one scratch per worker, reused
// across centers. The BFS methods take the ball explicitly because a
// worker alternates between its private ball and an iteration-shared
// read-only one.
type Scratch struct {
	Priv  Ball    // worker-private ball, rebuilt per center as needed
	DistC []int32 // center BFS distances by row; -1 = unreachable
	DistA []int32 // anchor BFS distances by row; -1 = unreachable
	queue []int32
}

// CenterBFS fills DistC with BFS distances from the given row over b.
func (s *Scratch) CenterBFS(b *Ball, row int32) {
	s.DistC = ballBFS(b, row, s.DistC, &s.queue)
}

// AnchorBFS fills DistA with BFS distances from the given row over b.
func (s *Scratch) AnchorBFS(b *Ball, row int32) {
	s.DistA = ballBFS(b, row, s.DistA, &s.queue)
}

// ballBFS is a plain-array BFS over the ball CSR. Neighbor order only
// affects queue order within a level, never the distances.
func ballBFS(b *Ball, src int32, dist []int32, queue *[]int32) []int32 {
	nr := b.NumRows()
	if cap(dist) < nr {
		dist = make([]int32, nr)
	} else {
		dist = dist[:nr]
	}
	for i := range dist {
		dist[i] = -1
	}
	q := (*queue)[:0]
	dist[src] = 0
	q = append(q, src)
	for h := 0; h < len(q); h++ {
		v := q[h]
		d := dist[v] + 1
		for _, u := range b.Row(v) {
			if dist[u] < 0 {
				dist[u] = d
				q = append(q, u)
			}
		}
	}
	*queue = q
	return dist
}
