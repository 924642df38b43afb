package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/peel"
	"repro/internal/view"
)

// PruneOutcome is the result of the distributed pruning phase
// (Algorithm 3): the layer assignment, each node's parent for the color
// correction phase, and the LOCAL rounds consumed.
type PruneOutcome struct {
	Layer      map[graph.ID]int      // 1-based layer per node
	Parent     map[graph.ID]graph.ID // parent per Definition 1; absent = ⊥
	Rounds     int
	Iterations int
	// Messages and Volume (in flood records) measure the flooding
	// traffic of the whole pruning phase — LOCAL allows unbounded
	// messages; this is what the protocol actually used.
	Messages int
	Volume   int
}

// PruneSpec configures the distributed pruning phase. The zero value is
// invalid; use the constructors or fill every relevant field.
type PruneSpec struct {
	// DiamThreshold peels internal paths of anchored diameter at least
	// this value (Algorithm 2 uses 3k, Algorithm 6 uses 2d+3).
	DiamThreshold int
	// Radius is the per-iteration knowledge radius; it must comfortably
	// exceed DiamThreshold (Algorithm 2 uses 10k ≈ 3.3×) so that
	// threshold comparisons are exact within the ball.
	Radius int
	// MaxIterations truncates the process (Algorithm 6); 0 = until all
	// nodes are decided.
	MaxIterations int
	// FinalAlpha, when positive with MaxIterations > 0, switches the last
	// iteration's internal-path rule to "independence number ≥ FinalAlpha"
	// (Algorithm 6's last iteration).
	FinalAlpha int
	// Observer, when non-nil, is attached to every flooding engine run.
	// If it also implements dist.PhaseSetter, each iteration's flood is
	// labeled "prune-iNN" so traces resolve the phase structure.
	Observer dist.RoundObserver
	// Faults, when non-nil, attaches the fault schedule to every
	// flooding engine run. The plain flood tolerates duplication and
	// delay; dropped messages shrink balls and typically surface as a
	// Lemma-12 divergence in the callers' centralized cross-check.
	Faults *dist.Faults
	// DecideWorkers bounds the decide kernel's worker count: 0 falls
	// back to DefaultDecideWorkers (and then GOMAXPROCS), 1 forces the
	// sequential schedule. The decision outcome is bit-identical for
	// every value; only wall time changes.
	DecideWorkers int
	// Part, when non-nil, runs every flood on the partitioned runtime
	// (shards host index ranges; see dist.NewCoordinator) instead of the
	// in-process engine. Results are identical by construction — the
	// decide kernel and all other stages stay coordinator-side.
	Part *dist.Partition
}

// DistributedPrune runs the PruneTree subroutine of Algorithm 2 with
// parameter k: per iteration, nodes flood their distance-10k
// neighborhoods (genuine message passing, 10k rounds charged), undecided
// nodes rebuild their local view of the clique forest of the remaining
// graph, and each decides from that view alone whether its subtree lies
// on a peelable path (a pendant path, or a binary path of diameter ≥ 3k).
func DistributedPrune(g *graph.Graph, k int) (*PruneOutcome, error) {
	return DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3 * k, Radius: 10 * k})
}

// DistributedPruneSpec runs the distributed pruning phase under an
// arbitrary rule set (Algorithm 2's or Algorithm 6's).
func DistributedPruneSpec(g *graph.Graph, spec PruneSpec) (*PruneOutcome, error) {
	if spec.Radius < spec.DiamThreshold*3 {
		return nil, fmt.Errorf("radius %d too small for threshold %d (need ≥ 3×)",
			spec.Radius, spec.DiamThreshold)
	}
	if spec.FinalAlpha > 0 && spec.Radius < 2*spec.FinalAlpha+16 {
		return nil, fmt.Errorf("radius %d too small for α-threshold %d", spec.Radius, spec.FinalAlpha)
	}
	out := &PruneOutcome{
		Layer:  make(map[graph.ID]int, g.NumNodes()),
		Parent: make(map[graph.ID]graph.ID),
	}
	// The communication graph never changes across iterations: snapshot it
	// once and reuse the snapshot for every flood.
	ix := graph.NewIndexed(g)
	nodes := ix.IDs()
	// Decide-kernel state reused across iterations: the undecided-set
	// views, the iteration-shared G_i ball, and one scratch per worker
	// shard (see decide.go).
	workers := resolveDecideWorkers(spec.DecideWorkers)
	// noteOf[i] is the flood annotation of the node at snapshot index i:
	// its layer once decided, nil while undecided. Maintained in place as
	// layers are assigned, so no per-iteration note map is ever built;
	// each flood run copies it once, so the knowledge it returns keeps
	// the notes as of that flood.
	noteOf := make([]any, ix.NumNodes())
	undecidedIdx := make([]bool, ix.NumNodes())
	centers := make([]int32, 0, ix.NumNodes())
	undecidedAll := make([]graph.ID, 0, ix.NumNodes())
	var sharedBall view.Ball
	var scratches []*decideScratch
	var results []decideResult
	for iteration := 1; len(out.Layer) < g.NumNodes(); iteration++ {
		if spec.MaxIterations > 0 && iteration > spec.MaxIterations {
			break
		}
		if iteration > g.NumNodes()+1 {
			return nil, fmt.Errorf("distributed prune did not terminate")
		}
		out.Iterations = iteration
		last := spec.MaxIterations > 0 && iteration == spec.MaxIterations
		if ps, ok := spec.Observer.(dist.PhaseSetter); ok {
			ps.SetPhase(fmt.Sprintf("prune-i%02d", iteration))
		}
		var know []*dist.Knowledge
		var stats *dist.Result
		var err error
		if spec.Part != nil {
			know, stats, err = dist.CollectBallsByIndexPart(spec.Part, ix, spec.Radius, noteOf, spec.Observer, spec.Faults)
		} else {
			know, stats, err = dist.CollectBallsByIndex(ix, spec.Radius, noteOf, spec.Observer, spec.Faults)
		}
		if err != nil {
			return nil, err
		}
		out.Rounds += stats.Rounds
		out.Messages += stats.Messages
		out.Volume += stats.Volume

		rule := decideRule{
			diamThreshold: spec.DiamThreshold,
			parentHorizon: spec.DiamThreshold/3 + 3,
		}
		if last && spec.FinalAlpha > 0 {
			rule.alphaThreshold = spec.FinalAlpha
		}
		undecided := func(u graph.ID) bool {
			_, done := out.Layer[u]
			return !done
		}
		centers = centers[:0]
		undecidedAll = undecidedAll[:0]
		for i, v := range nodes {
			if undecided(v) {
				undecidedIdx[i] = true
				centers = append(centers, int32(i))
				undecidedAll = append(undecidedAll, v)
			} else {
				undecidedIdx[i] = false
			}
		}
		// G_i, the global remaining graph, and the iteration-wide clique
		// cache over it. Each node still decides from its own ball alone;
		// the cache only shares the φ(u)/T(u) computations that every ball
		// trusting u performs identically (see cliqueCache). The cache is
		// pre-populated deterministically and the shared G_i ball built
		// up front, so the decide workers only ever read them.
		gi := g.InducedSubgraph(undecidedAll)
		var cache *cliqueCache
		if spec.Radius >= 2 {
			cache = newCliqueCache(gi, ix)
			cache.prepopulate(undecidedAll, workers)
			sharedBall.BuildFromIndexed(ix, undecidedIdx)
		}
		for s := shardCount(len(centers), workers); len(scratches) < s; {
			scratches = append(scratches, &decideScratch{})
		}
		if ps, ok := spec.Observer.(dist.PhaseSetter); ok {
			ps.SetPhase(fmt.Sprintf("decide-i%02d", iteration))
		}
		var derr error
		results, derr = runDecideStage(ix, know, cache, &sharedBall, scratches,
			centers, undecidedIdx, undecided, rule, spec.Radius, workers, spec.Observer, results)
		if derr != nil {
			de := derr.(*decideError)
			return nil, fmt.Errorf("iteration %d node %d: %w", iteration, de.node, de.err)
		}
		peeled := 0
		for i := range results {
			if results[i].peel {
				peeled++
			}
		}
		if peeled == 0 && !last {
			return nil, fmt.Errorf("iteration %d peeled nothing", iteration)
		}
		for pos, ci := range centers {
			if !results[pos].peel {
				continue
			}
			v := nodes[ci]
			out.Layer[v] = iteration
			noteOf[ci] = iteration
			if parent := results[pos].parent; parent >= 0 {
				out.Parent[v] = parent
			}
		}
	}
	return out, nil
}

// decideRule is the per-iteration peeling rule used by the decide
// kernel (decide.go).
type decideRule struct {
	diamThreshold  int
	alphaThreshold int // >0 switches internal paths to the α rule
	parentHorizon  int // parent adoption distance (k+3)
}

// ColorChordalDistributed runs the full distributed Algorithm 2: the
// genuinely message-passed pruning phase, then the coloring and color
// correction phases with LOCAL round accounting. As a built-in
// self-check it verifies that the distributed layer partition matches the
// centralized Algorithm 1 partition (Lemma 12) and fails loudly if not.
func ColorChordalDistributed(g *graph.Graph, eps float64) (*ChordalColoring, error) {
	return ColorChordalDistributedObserved(g, eps, nil, nil)
}

// ColorChordalDistributedObserved is ColorChordalDistributed with
// observability hooks: o (may be nil) is attached to every engine run —
// the pruning floods, phase-labeled per iteration, and the correction
// choreography, labeled "correction" — and peelTrace (may be nil)
// receives the centralized cross-check peel's per-layer events.
func ColorChordalDistributedObserved(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent)) (*ChordalColoring, error) {
	return ColorChordalDistributedFaulty(g, eps, o, peelTrace, nil)
}

// ColorChordalDistributedFaulty is ColorChordalDistributedObserved with
// a fault schedule attached to every engine run (the pruning floods and
// the correction choreography). Duplication and delay are absorbed — the
// coloring is byte-identical to the fault-free run — while drops and
// crashes surface as errors: the Lemma-12 cross-check against the
// centralized peel catches corrupted pruning, and the engine reports
// crashes directly.
func ColorChordalDistributedFaulty(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent), f *dist.Faults) (*ChordalColoring, error) {
	return colorChordalDistributed(g, eps, o, peelTrace, f, nil)
}

// ColorChordalDistributedFaultyPart is ColorChordalDistributedFaulty
// with the message-passing phases (the pruning floods and the correction
// choreography) executed on a partition — shard hosts that may live in
// other processes. Everything else (decide kernel, centralized
// cross-check, coloring) stays in this process, and the result is
// byte-identical to the LOCAL run on the same seed by construction.
func ColorChordalDistributedFaultyPart(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent), f *dist.Faults, part *dist.Partition) (*ChordalColoring, error) {
	if part == nil {
		return nil, fmt.Errorf("partitioned coloring needs a partition")
	}
	return colorChordalDistributed(g, eps, o, peelTrace, f, part)
}

func colorChordalDistributed(g *graph.Graph, eps float64, o dist.RoundObserver, peelTrace func(peel.LayerEvent), f *dist.Faults, part *dist.Partition) (*ChordalColoring, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("epsilon must be positive, got %v", eps)
	}
	k := EffectiveK(eps)
	outcome, err := DistributedPruneSpec(g, PruneSpec{DiamThreshold: 3 * k, Radius: 10 * k, Observer: o, Faults: f, Part: part})
	if err != nil {
		return nil, fmt.Errorf("distributed prune: %w", err)
	}
	po, _ := o.(peel.KernelObserver)
	peeled, err := peel.Run(g, peel.Options{InternalDiameter: 3 * k, Trace: peelTrace, NoForests: true, Observer: po})
	if err != nil {
		return nil, err
	}
	central := peeled.NodeLayers()
	for v, l := range outcome.Layer {
		if central[v] != l {
			return nil, fmt.Errorf("Lemma 12 violation: node %d in distributed layer %d, centralized layer %d",
				v, l, central[v])
		}
	}
	rounds := outcome.Rounds
	col, err := colorLayers(g, k, peeled, &rounds, o)
	if err != nil {
		return nil, err
	}
	// Correction-phase sanity: only nodes with parents may have been
	// recolored (they are the only ones that receive SetColor).
	for v, final := range col.Colors {
		if final != col.Provisional[v] {
			if _, ok := outcome.Parent[v]; !ok {
				return nil, fmt.Errorf("node %d recolored without a parent", v)
			}
		}
	}
	// Run the correction choreography with real messages and charge its
	// measured asynchronous schedule length.
	if ps, ok := o.(dist.PhaseSetter); ok {
		ps.SetPhase("correction")
	}
	var corrRounds int
	if part != nil {
		corrRounds, err = RunCorrectionPhasePart(part, g, outcome.Layer, outcome.Parent, col.Colors, k, o, f)
	} else {
		corrRounds, err = RunCorrectionPhaseFaulty(g, outcome.Layer, outcome.Parent, col.Colors, k, o, f)
	}
	if err != nil {
		return nil, err
	}
	col.Rounds = rounds + corrRounds
	return col, nil
}
