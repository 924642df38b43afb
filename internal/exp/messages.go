package exp

import (
	"repro/internal/core"
	"repro/internal/gen"
)

// E17MessageComplexity measures the communication the distributed pruning
// phase actually uses. The LOCAL model allows unbounded messages; the
// incremental full-information flooding our Algorithm 3 implementation
// uses sends each node record across each edge at most once per
// iteration, so volume ≈ Σ_v deg(v)·|ball_v| per iteration — this table
// makes that concrete.
func E17MessageComplexity(quick bool) (*Table, error) {
	sizes := []int{64, 128, 256, 512}
	if quick {
		sizes = []int{64, 128}
	}
	const k = 4 // ε ≈ 0.5
	t := &Table{
		ID:      "E17",
		Title:   "Message complexity of the distributed pruning phase (k=4)",
		Columns: []string{"n", "m", "iterations", "rounds", "messages", "volume (records)", "volume/(n·m)"},
		Notes: []string{
			"Volume counts flood records crossing edges; the incremental flood bound is iterations·2m·n.",
		},
	}
	for _, n := range sizes {
		g := gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, int64(5*n))
		out, err := core.DistributedPrune(g, k)
		if err != nil {
			return nil, err
		}
		m := g.NumEdges()
		t.AddRow(n, m, out.Iterations, out.Rounds, out.Messages, out.Volume,
			float64(out.Volume)/float64(n*m))
	}
	return t, nil
}
