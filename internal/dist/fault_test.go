package dist

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// faultRecorder implements RoundObserver + FaultObserver, capturing the
// per-round fault stats alongside the regular round stream.
type faultRecorder struct {
	mu     sync.Mutex
	rounds []RoundStats
	faults []FaultStats
}

func (r *faultRecorder) RunStart(nodes, edges int) {}
func (r *faultRecorder) RoundStart(round, shards int) {
	r.mu.Lock()
	defer r.mu.Unlock()
}
func (r *faultRecorder) ShardStart(shard int) {}
func (r *faultRecorder) ShardEnd(shard int)   {}
func (r *faultRecorder) RoundEnd(stats RoundStats) {
	r.mu.Lock()
	r.rounds = append(r.rounds, stats)
	r.mu.Unlock()
}
func (r *faultRecorder) RunEnd(rounds int) {}
func (r *faultRecorder) FaultRound(stats FaultStats) {
	r.mu.Lock()
	r.faults = append(r.faults, stats)
	r.mu.Unlock()
}

// TestNilAndZeroFaultsEquivalent: an all-zero fault plan must behave
// exactly like the nil fast path — same results, no fault counters, no
// FaultRound callbacks.
func TestNilAndZeroFaultsEquivalent(t *testing.T) {
	g := gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3)
	ref := floodRun(t, g, 3)

	rec := &faultRecorder{}
	ix := graph.NewIndexed(g)
	know, res, err := CollectBallsIndexedFaulty(ix, 3, nil, rec, &Faults{})
	if err != nil {
		t.Fatal(err)
	}
	compareFloodRuns(t, "zero-plan", ref, fingerprint(res, know))
	if res.Dropped+res.Duplicated+res.DeadLetters+res.Stall != 0 {
		t.Errorf("zero plan produced fault counters: %+v", res)
	}
	if len(rec.faults) != 0 {
		t.Errorf("zero plan produced %d FaultRound callbacks", len(rec.faults))
	}
}

// TestDupAndDelayAbsorbed: the flood dedups duplicates and the
// round-synchronous model absorbs delays, so knowledge must be
// byte-identical to the fault-free run; only the message counters and
// the stall accounting may differ.
func TestDupAndDelayAbsorbed(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7)
	radius := 4
	ref := floodRun(t, g, radius)

	f := &Faults{Plan: fault.Plan{Seed: 11, Dup: 0.3, MaxDelay: 3}}
	know, res, err := CollectBallsIndexedFaulty(graph.NewIndexed(g), radius, nil, nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicated == 0 {
		t.Fatal("dup=0.3 duplicated nothing")
	}
	if res.Stall == 0 {
		t.Fatal("delay=3 charged no stall")
	}
	for v, k := range know {
		wantRecs, wantEnds := ref.recs[v], ref.ends[v]
		if len(k.recs) != len(wantRecs) {
			t.Fatalf("node %d: %d records under dup/delay, want %d", v, len(k.recs), len(wantRecs))
		}
		for i := range wantRecs {
			if k.recs[i] != wantRecs[i] {
				t.Fatalf("node %d record %d diverged under dup/delay", v, i)
			}
		}
		if !slices.Equal(k.ends, wantEnds) {
			t.Fatalf("node %d: sphere ends %v under dup/delay, want %v", v, k.ends, wantEnds)
		}
	}
}

// TestFaultScheduleDeterministicAcrossModes: same (graph, protocol,
// seed, plan) must produce identical results — including the fault
// counters and the per-round fault stream — at every worker count.
func TestFaultScheduleDeterministicAcrossModes(t *testing.T) {
	g := gen.RandomChordal(150, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 5)
	radius := 3
	run := func() (*Result, *faultRecorder) {
		rec := &faultRecorder{}
		f := &Faults{Plan: fault.Plan{Seed: 99, Drop: 0.1, Dup: 0.1, MaxDelay: 2}}
		_, res, err := CollectBallsIndexedFaulty(graph.NewIndexed(g), radius, nil, rec, f)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	var refRes *Result
	var refRec *faultRecorder
	withProcs(t, testProcs[0], func() { refRes, refRec = run() })
	for _, m := range testProcs[1:] {
		var gotRes *Result
		var gotRec *faultRecorder
		withProcs(t, m, func() { gotRes, gotRec = run() })
		if gotRes.Dropped != refRes.Dropped || gotRes.Duplicated != refRes.Duplicated ||
			gotRes.Stall != refRes.Stall || gotRes.Messages != refRes.Messages ||
			gotRes.Volume != refRes.Volume {
			t.Fatalf("procs %d: fault counters diverged: %+v vs %+v", m, gotRes, refRes)
		}
		if len(gotRec.faults) != len(refRec.faults) {
			t.Fatalf("procs %d: %d fault rounds, want %d", m, len(gotRec.faults), len(refRec.faults))
		}
		for i := range refRec.faults {
			w, g := refRec.faults[i], gotRec.faults[i]
			if w.Round != g.Round || w.Dropped != g.Dropped || w.Duplicated != g.Duplicated ||
				w.Stall != g.Stall || w.DeadLetters != g.DeadLetters {
				t.Fatalf("procs %d fault round %d: %+v, want %+v", m, i, g, w)
			}
		}
	}
}

// TestFaultRoundSumsMatchResult: the per-round FaultStats stream must
// sum to the run's Result counters.
func TestFaultRoundSumsMatchResult(t *testing.T) {
	g := gen.KTree(100, 3, 13)
	rec := &faultRecorder{}
	f := &Faults{Plan: fault.Plan{Seed: 3, Drop: 0.2, Dup: 0.2, MaxDelay: 4}}
	_, res, err := CollectBallsIndexedFaulty(graph.NewIndexed(g), 3, nil, rec, f)
	if err != nil {
		t.Fatal(err)
	}
	var drop, dup, stall int
	for _, fs := range rec.faults {
		drop += fs.Dropped
		dup += fs.Duplicated
		stall += fs.Stall
	}
	if drop != res.Dropped || dup != res.Duplicated || stall != res.Stall {
		t.Errorf("fault stream sums (%d,%d,%d) != result (%d,%d,%d)",
			drop, dup, stall, res.Dropped, res.Duplicated, res.Stall)
	}
	if res.Dropped == 0 || res.Duplicated == 0 || res.Stall == 0 {
		t.Errorf("expected all fault kinds to fire: %+v", res)
	}
}

// TestCrashBlocksRun: a node crashed before it can finish must turn
// into a diagnosable error naming the node, not a timeout.
func TestCrashBlocksRun(t *testing.T) {
	g := gen.Path(6)
	f := &Faults{Crash: map[graph.ID]int{2: 1}}
	_, _, err := CollectBallsIndexedFaulty(graph.NewIndexed(g), 4, nil, nil, f)
	if err == nil {
		t.Fatal("crashed node did not fail the run")
	}
	if !strings.Contains(err.Error(), "node 2 crashed at round 1") {
		t.Errorf("error %q does not name the crashed node and round", err)
	}
}

// TestCrashDeadLetters: messages to a crashed node are counted as dead
// letters and the crash round is reported via FaultRound.
func TestCrashDeadLetters(t *testing.T) {
	g := gen.Path(6)
	rec := &faultRecorder{}
	f := &Faults{Crash: map[graph.ID]int{2: 1}}
	eng := NewEngine(g, func(v graph.ID) Protocol { return &countingProtocol{limit: 3} })
	eng.Observer = rec
	eng.Faults = f
	_, err := eng.Run(10)
	if err == nil {
		t.Fatal("want crash error")
	}
	sawCrash := false
	for _, fs := range rec.faults {
		for _, v := range fs.Crashed {
			if v == 2 {
				if fs.Round != 1 {
					t.Errorf("crash of node 2 reported at round %d, want 1", fs.Round)
				}
				sawCrash = true
			}
		}
	}
	if !sawCrash {
		t.Error("crash of node 2 never reported via FaultRound")
	}
}

// TestCrashUnknownNode: a crash schedule naming a non-node is rejected
// up front.
func TestCrashUnknownNode(t *testing.T) {
	g := gen.Path(3)
	eng := NewEngine(g, func(v graph.ID) Protocol { return &countingProtocol{limit: 2} })
	eng.Faults = &Faults{Crash: map[graph.ID]int{99: 1}}
	_, err := eng.Run(10)
	if err == nil || !strings.Contains(err.Error(), "not a node of the network") {
		t.Fatalf("unknown crash node: err = %v", err)
	}
}

// TestDropCorruptsPlainFlood documents the failure mode the
// retransmitting variant exists for: under drops the round-counted
// flood still "succeeds" but collects strictly less knowledge.
func TestDropCorruptsPlainFlood(t *testing.T) {
	g := gen.KTree(150, 3, 21)
	radius := 3
	ref := floodRun(t, g, radius)
	f := &Faults{Plan: fault.Plan{Seed: 17, Drop: 0.4}}
	know, res, err := CollectBallsIndexedFaulty(graph.NewIndexed(g), radius, nil, nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("drop=0.4 dropped nothing")
	}
	lost := 0
	for v, k := range know {
		if len(k.recs) < len(ref.recs[v]) {
			lost++
		}
	}
	if lost == 0 {
		t.Error("40% drop rate lost no knowledge anywhere — fault injection is not reaching delivery")
	}
}

// TestParseFaults covers the dist-level wrapper: an empty spec collapses
// to (nil, nil) — the documented "no plan requested" fast path — while a
// syntactically valid but inert spec surfaces as ErrFaultsInactive so a
// typo'd rate of 0.0 can no longer silently run a fault-free chaos
// experiment. Crash IDs are converted, and the ParseFaults inputs are
// recorded on the plan for the partitioned runtime.
func TestParseFaults(t *testing.T) {
	if f, err := ParseFaults("", 1); err != nil || f != nil {
		t.Errorf("empty spec: (%v, %v), want (nil, nil)", f, err)
	}
	if f, err := ParseFaults("  \t", 1); err != nil || f != nil {
		t.Errorf("blank spec: (%v, %v), want (nil, nil)", f, err)
	}
	f, err := ParseFaults("drop=0,dup=0", 1)
	if f != nil {
		t.Errorf("no-op spec returned a plan: %+v", f)
	}
	if !IsInactive(err) {
		t.Errorf("no-op spec: err = %v, want ErrFaultsInactive", err)
	}
	if _, err := ParseFaults("delay=0", 1); !IsInactive(err) {
		t.Errorf("delay=0: err = %v, want ErrFaultsInactive", err)
	}
	f, err = ParseFaults("drop=0.5,crash=7@3", 9)
	if err != nil {
		t.Fatal(err)
	}
	if f.Plan.Drop != 0.5 || f.Plan.Seed != 9 || f.Crash[graph.ID(7)] != 3 {
		t.Errorf("parsed %+v", f)
	}
	if f.Spec != "drop=0.5,crash=7@3" || f.Seed != 9 {
		t.Errorf("ParseFaults inputs not recorded: Spec=%q Seed=%d", f.Spec, f.Seed)
	}
	if _, err := ParseFaults("drop=2", 1); err == nil {
		t.Error("bad spec accepted")
	}
	if IsInactive(fmt.Errorf("other")) {
		t.Error("IsInactive matched an unrelated error")
	}
}
