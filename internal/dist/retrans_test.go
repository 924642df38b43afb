package dist

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// sameKnowledge compares two ball collections by content: same node
// sets, same distances. Record order may legitimately differ between
// the plain flood (discovery order) and the retransmitting one (sorted
// by hops then ID), so the comparison goes through DistOf.
func sameKnowledge(t *testing.T, name string, want, got map[graph.ID]*Knowledge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d knowledges, want %d", name, len(got), len(want))
	}
	for v, wk := range want {
		gk := got[v]
		if gk == nil {
			t.Fatalf("%s: node %d missing", name, v)
		}
		if gk.Size() != wk.Size() {
			t.Fatalf("%s node %d: ball size %d, want %d", name, v, gk.Size(), wk.Size())
		}
		for _, idx := range wk.recs {
			u := wk.snap.IDOf(int(idx))
			wd, _ := wk.DistOf(u)
			gd, ok := gk.DistOf(u)
			if !ok || gd != wd {
				t.Fatalf("%s node %d: dist to %d = %d (known=%v), want %d", name, v, u, gd, ok, wd)
			}
		}
	}
}

// TestRetransMatchesFloodFaultFree: with no faults, the retransmitting
// flood gathers exactly the knowledge the plain flood does, paying the
// ack round-trip (radius + 2 rounds) for the delivery guarantee.
func TestRetransMatchesFloodFaultFree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal": gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 19),
		"path":    gen.Path(20),
		"star":    gen.Star(15),
	}
	for name, g := range graphs {
		for _, radius := range []int{0, 1, 3} {
			want, _, err := CollectBalls(g, radius, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, res, err := CollectBallsRetrans(g, radius, 4*radius+10, nil, nil, nil)
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, radius, err)
			}
			sameKnowledge(t, name, want, got)
			if radius > 0 && res.Rounds > radius+2 {
				t.Errorf("%s r=%d: fault-free retransmission took %d rounds, want ≤ %d", name, radius, res.Rounds, radius+2)
			}
		}
	}
}

// TestRetransSurvivesDrops is the graceful-degradation guarantee: under
// heavy message loss the retransmitting flood still converges to the
// exact fault-free knowledge, spending extra rounds.
func TestRetransSurvivesDrops(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 23)
	radius := 3
	want, _, err := CollectBalls(g, radius, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.3, 0.5} {
		f := &Faults{Plan: fault.Plan{Seed: 41, Drop: p}}
		got, res, err := CollectBallsRetrans(g, radius, 200, nil, f, nil)
		if err != nil {
			t.Fatalf("drop=%.1f: %v", p, err)
		}
		if res.Dropped == 0 {
			t.Fatalf("drop=%.1f dropped nothing", p)
		}
		sameKnowledge(t, "drops", want, got)
		if res.Rounds <= radius {
			t.Errorf("drop=%.1f: converged in %d rounds, implausibly fast", p, res.Rounds)
		}
	}
}

// TestRetransAbsorbsDupAndDelay: duplication and delay must not change
// the converged knowledge either.
func TestRetransAbsorbsDupAndDelay(t *testing.T) {
	g := gen.KTree(100, 3, 29)
	radius := 2
	want, _, err := CollectBalls(g, radius, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &Faults{Plan: fault.Plan{Seed: 5, Drop: 0.2, Dup: 0.3, MaxDelay: 2}}
	got, res, err := CollectBallsRetrans(g, radius, 200, nil, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameKnowledge(t, "dup+delay", want, got)
	if res.Duplicated == 0 || res.Stall == 0 {
		t.Errorf("expected dup and stall activity: %+v", res)
	}
}

// TestRetransDeterministicAcrossModes: the faulty retransmitting run is
// as worker-count-independent as everything else.
func TestRetransDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(100, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 31)
	f := &Faults{Plan: fault.Plan{Seed: 13, Drop: 0.25}}
	type fp struct {
		rounds, messages, volume, dropped int
	}
	run := func() (map[graph.ID]*Knowledge, fp) {
		know, res, err := CollectBallsRetrans(g, 3, 200, nil, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		return know, fp{res.Rounds, res.Messages, res.Volume, res.Dropped}
	}
	var refK map[graph.ID]*Knowledge
	var refFP fp
	withProcs(t, testProcs[0], func() { refK, refFP = run() })
	for _, procs := range testProcs[1:] {
		var gotK map[graph.ID]*Knowledge
		var gotFP fp
		withProcs(t, procs, func() { gotK, gotFP = run() })
		if gotFP != refFP {
			t.Fatalf("procs %d: %+v, want %+v", procs, gotFP, refFP)
		}
		sameKnowledge(t, "procs", refK, gotK)
	}
}

// TestRetransBudgetExhaustion: an impossible budget fails with the
// engine's did-not-terminate error rather than returning short balls.
func TestRetransBudgetExhaustion(t *testing.T) {
	g := gen.Path(30)
	f := &Faults{Plan: fault.Plan{Seed: 1, Drop: 0.5}}
	_, _, err := CollectBallsRetrans(g, 5, 3, nil, f, nil)
	if err == nil {
		t.Fatal("budget of 3 rounds under 50% drop succeeded")
	}
	if !strings.Contains(err.Error(), "did not terminate") {
		t.Errorf("error %q is not the budget-exhaustion diagnosis", err)
	}
}

// TestRetransNotes: annotations ride along like in the plain flood.
func TestRetransNotes(t *testing.T) {
	g := gen.Path(5)
	notes := map[graph.ID]any{0: "a", 4: "z"}
	know, _, err := CollectBallsRetrans(g, 2, 20, notes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := know[2].Note(0); got != "a" {
		t.Errorf("note of node 0 seen by node 2 = %v, want a", got)
	}
	if got := know[3].Note(4); got != "z" {
		t.Errorf("note of node 4 seen by node 3 = %v, want z", got)
	}
}
