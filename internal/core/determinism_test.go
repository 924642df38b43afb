package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestDistributedPruneDeterministicAcrossModes runs the full pruning
// phase (an E4/E6-style workload) at GOMAXPROCS 1, 2 and 4 and requires
// bit-for-bit identical outcomes: same layers, parents, rounds, and
// traffic counters. One worker is the reference.
func TestDistributedPruneDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 9)
	run := func(procs int) *PruneOutcome {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		out, err := DistributedPrune(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, m := range []int{2, 4} {
		got := run(m)
		if got.Rounds != ref.Rounds || got.Iterations != ref.Iterations ||
			got.Messages != ref.Messages || got.Volume != ref.Volume {
			t.Fatalf("procs %d: counters (rounds=%d iter=%d msgs=%d vol=%d), want (%d,%d,%d,%d)",
				m, got.Rounds, got.Iterations, got.Messages, got.Volume,
				ref.Rounds, ref.Iterations, ref.Messages, ref.Volume)
		}
		if !reflect.DeepEqual(got.Layer, ref.Layer) {
			t.Fatalf("procs %d: layer assignment differs from one worker", m)
		}
		if !reflect.DeepEqual(got.Parent, ref.Parent) {
			t.Fatalf("procs %d: parent assignment differs from one worker", m)
		}
	}
}
