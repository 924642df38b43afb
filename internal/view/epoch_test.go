package view

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestEpochCrossesInt32Boundary forces a Ball's epoch to the old int32
// ceiling and rebuilds across it. With the int64 epoch the counter must
// keep climbing monotonically past math.MaxInt32 — the previous int32
// epoch could not represent these values and had to fall back to an
// O(n) mark sweep at the boundary. Membership queries must stay exact
// on both sides of the crossing: a node kept in the build before the
// boundary but excluded after it must read as absent, which is exactly
// what breaks if stale marks survive the crossing.
func TestEpochCrossesInt32Boundary(t *testing.T) {
	g := gen.RandomChordal(60, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 1)
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()

	var b Ball
	b.BuildFromIndexed(ix, nil) // warm storage at epoch 1
	b.epoch = math.MaxInt32 - 1

	keepEven := make([]bool, n)
	keepOdd := make([]bool, n)
	for i := 0; i < n; i++ {
		keepEven[i] = i%2 == 0
		keepOdd[i] = i%2 == 1
	}

	keeps := []struct {
		name string
		keep []bool
	}{
		{"even@MaxInt32", keepEven},   // epoch becomes MaxInt32
		{"odd@MaxInt32+1", keepOdd},   // first epoch beyond int32
		{"even@MaxInt32+2", keepEven}, // and one more for good measure
	}
	for step, tc := range keeps {
		b.BuildFromIndexed(ix, tc.keep)
		wantEpoch := int64(math.MaxInt32) + int64(step)
		if b.epoch != wantEpoch {
			t.Fatalf("%s: epoch = %d, want %d (monotonic int64, no wrap)",
				tc.name, b.epoch, wantEpoch)
		}
		for i := 0; i < n; i++ {
			row := b.RowOf(int32(i))
			if tc.keep[i] {
				if row < 0 || b.NodeAt(row) != int32(i) {
					t.Fatalf("%s: kept index %d: RowOf = %d", tc.name, i, row)
				}
			} else if row != -1 {
				t.Fatalf("%s: excluded index %d still resolves to row %d (stale mark from epoch %d)",
					tc.name, i, row, b.epoch-1)
			}
		}
	}
	if b.epoch <= math.MaxInt32 {
		t.Fatalf("epoch %d never exceeded math.MaxInt32", b.epoch)
	}
}

// TestEpochBoundaryFromSource is the same crossing exercised through
// the record-stream builder, which shares the epoch machinery but
// orders rows by discovery instead of snapshot index.
func TestEpochBoundaryFromSource(t *testing.T) {
	g := gen.KTree(50, 3, 5)
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()
	src := snapshotSource{ix: ix}

	var b Ball
	b.BuildFromSource(src, ix, n, nil)
	b.epoch = math.MaxInt32
	keep := make([]bool, n)
	for i := 0; i < n; i++ {
		keep[i] = i%3 != 0
	}
	b.BuildFromSource(src, ix, n, keep)
	if b.epoch != int64(math.MaxInt32)+1 {
		t.Fatalf("epoch = %d, want MaxInt32+1", b.epoch)
	}
	for i := 0; i < n; i++ {
		row := b.RowOf(int32(i))
		if keep[i] && (row < 0 || b.NodeAt(row) != int32(i)) {
			t.Fatalf("kept index %d: RowOf = %d", i, row)
		}
		if !keep[i] && row != -1 {
			t.Fatalf("excluded index %d resolves to row %d past the boundary", i, row)
		}
	}
}

// snapshotSource adapts an Indexed snapshot into a Source whose records
// are all at distance 0 in snapshot order — enough to drive the
// Source-path epoch machinery without a flood run.
type snapshotSource struct{ ix *graph.Indexed }

func (s snapshotSource) RecordsWithin(radius int) []int32 {
	recs := make([]int32, s.ix.NumNodes())
	for i := range recs {
		recs[i] = int32(i)
	}
	return recs
}
