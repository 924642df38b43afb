package dist

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bfsDist returns every snapshot index's BFS distance from center (-1 =
// unreachable) and the size of center's component.
func bfsDist(ix *graph.Indexed, center int) ([]int32, int) {
	d := make([]int32, ix.NumNodes())
	for i := range d {
		d[i] = -1
	}
	d[center] = 0
	queue := []int32{int32(center)}
	for h := 0; h < len(queue); h++ {
		v := queue[h]
		for _, u := range ix.NeighborIndices(int(v)) {
			if d[u] < 0 {
				d[u] = d[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return d, len(queue)
}

// checkAgainstBFS requires k — a fault-free ball — to agree with a BFS
// over its snapshot: RecordAt lists exactly the nodes within the radius,
// each at its BFS distance, in nondecreasing distance with the center
// first; KnownIdx and Known answer membership for every index; and
// CoversComponent holds exactly when the ball is the whole component.
// It reports whether the ball covers its component.
func checkAgainstBFS(t *testing.T, ix *graph.Indexed, k *Knowledge) bool {
	t.Helper()
	center, _ := ix.IndexOf(k.Center)
	d, comp := bfsDist(ix, center)
	within := 0
	for i, di := range d {
		in := di >= 0 && int(di) <= k.Radius
		if in {
			within++
		}
		if got := k.KnownIdx(int32(i)); got != in {
			t.Fatalf("center %d: KnownIdx(%d) = %v, BFS distance %d within radius %d = %v", k.Center, i, got, di, k.Radius, in)
		}
		if got := k.Known(ix.IDOf(i)); got != in {
			t.Fatalf("center %d: Known(%d) = %v, want %v", k.Center, ix.IDOf(i), got, in)
		}
	}
	if k.RecordCount() != within {
		t.Fatalf("center %d: %d records, BFS ball has %d nodes", k.Center, k.RecordCount(), within)
	}
	prev := int32(0)
	for i := 0; i < k.RecordCount(); i++ {
		idx, dist := k.RecordAt(i)
		if dist != d[idx] || dist < prev || (i == 0) != (int(idx) == center) {
			t.Fatalf("center %d: record %d is index %d at distance %d (BFS %d, previous %d)", k.Center, i, idx, dist, d[idx], prev)
		}
		prev = dist
	}
	covers := k.CoversComponent()
	if k.pos.Len() != 0 {
		t.Fatalf("center %d: CoversComponent built the position map", k.Center)
	}
	if want := within == comp; covers != want {
		t.Fatalf("center %d: CoversComponent = %v, ball %d of component %d", k.Center, covers, within, comp)
	}
	return covers
}

// TestCoversComponentBitmapMatchesBFS checks the dense-bitmap regime
// of CoversComponent against a BFS on both answers: balls that cover
// their component (radius beyond the diameter) and balls the radius
// clips.
func TestCoversComponentBitmapMatchesBFS(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 17)
	// A second component so coverage is per-component, not per-graph.
	g.AddEdge(5000, 5001)
	g.AddEdge(5001, 5002)
	for _, radius := range []int{0, 1, 2, 3, 50} {
		ix := graph.NewIndexed(g)
		know, _, err := CollectBallsIndexed(ix, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		covered, clipped := 0, 0
		for _, v := range ix.IDs() {
			k := know[v]
			if k.seen == nil {
				t.Fatalf("radius %d: knowledge of %d has no dedup bitmap at n=%d", radius, v, ix.NumNodes())
			}
			if checkAgainstBFS(t, ix, k) {
				covered++
			} else {
				clipped++
			}
		}
		// Both answers must actually occur across the radius sweep ends.
		if radius == 0 && covered != 0 {
			t.Fatalf("radius 0: %d balls claim component coverage", covered)
		}
		if radius == 50 && clipped != 0 {
			t.Fatalf("radius 50: %d balls still clipped", clipped)
		}
	}
}

// TestKnownIdxBitmapMatchesBFS checks KnownIdx's bit-test path,
// Known on IDs, and RecordAt's distances against a BFS, for clipped
// balls.
func TestKnownIdxBitmapMatchesBFS(t *testing.T) {
	g := gen.Tree(90, 7)
	ix := graph.NewIndexed(g)
	know, _, err := CollectBallsIndexed(ix, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ix.IDs() {
		checkAgainstBFS(t, ix, know[v])
	}
}

// TestRetransKnowledgeMatchesBFS checks that retransmission-protocol
// knowledge carries no bitmap — its membership and CoversComponent go
// through the sparse index set — and that its records, distances and
// membership agree with a BFS.
func TestRetransKnowledgeMatchesBFS(t *testing.T) {
	g := gen.Path(40)
	know, _, err := CollectBallsRetrans(g, 4, 50, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := graph.NewIndexed(g)
	for _, v := range g.Nodes() {
		k := know[v]
		if k.seen != nil {
			t.Fatalf("retrans knowledge of %d unexpectedly carries a dedup bitmap", v)
		}
		if k.known.Len() != k.Size() {
			t.Fatalf("retrans knowledge of %d: index set has %d entries, want %d", v, k.known.Len(), k.Size())
		}
		checkAgainstBFS(t, ix, k)
	}
}

// TestBigNSparseSetRegime exercises the flood above seenBitmapMaxN,
// where dedup and membership run through the sparse index set: no
// bitmap, no position map, and records, KnownIdx/Known and
// CoversComponent agreeing with a BFS.
func TestBigNSparseSetRegime(t *testing.T) {
	g := gen.Path(seenBitmapMaxN + 100)
	// A second, tiny component whose radius-3 balls cover it entirely,
	// so CoversComponent exercises both answers in this regime.
	g.AddEdge(1_000_000, 1_000_001)
	g.AddEdge(1_000_001, 1_000_002)
	ix := graph.NewIndexed(g)
	know, _, err := CollectBallsIndexed(ix, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	covered, clipped := 0, 0
	for _, v := range []graph.ID{0, 77, seenBitmapMaxN / 2, 1_000_000, 1_000_001} {
		k := know[v]
		if k.seen != nil {
			t.Fatalf("knowledge of %d carries a dense bitmap at n=%d", v, ix.NumNodes())
		}
		if k.known.Len() != k.Size() {
			t.Fatalf("knowledge of %d: index set has %d entries, want %d", v, k.known.Len(), k.Size())
		}
		if checkAgainstBFS(t, ix, k) {
			covered++
		} else {
			clipped++
		}
	}
	if covered == 0 || clipped == 0 {
		t.Fatalf("probe set saw covered=%d clipped=%d; want both regimes", covered, clipped)
	}
}
