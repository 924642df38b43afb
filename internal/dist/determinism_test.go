package dist

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// testProcs is the GOMAXPROCS sweep of the cross-worker determinism
// tests. The first entry — one worker, running the whole node range on
// the calling goroutine — is the reference.
var testProcs = []int{1, 2, 4}

// withProcs runs fn with GOMAXPROCS temporarily set to procs.
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// runWithProcs runs eng at GOMAXPROCS = procs.
func runWithProcs(t *testing.T, procs int, eng *Engine, maxRounds int) (*Result, error) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	return eng.Run(maxRounds)
}

// floodFingerprint captures everything observable about a flood run: the
// engine counters and, per node, the exact record sequence (snapshot
// indices) and sphere offsets the flood produced — together they fix
// every record's node and distance. Record order is part of the
// determinism contract — it is what downstream map-free iteration sees.
type floodFingerprint struct {
	rounds, messages, volume int
	recs                     map[graph.ID][]int32
	ends                     map[graph.ID][]int32
}

// fingerprint builds the fingerprint of a flood result.
func fingerprint(res *Result, know map[graph.ID]*Knowledge) floodFingerprint {
	fp := floodFingerprint{
		rounds:   res.Rounds,
		messages: res.Messages,
		volume:   res.Volume,
		recs:     make(map[graph.ID][]int32, len(know)),
		ends:     make(map[graph.ID][]int32, len(know)),
	}
	for v, k := range know {
		fp.recs[v] = k.recs
		fp.ends[v] = k.ends
	}
	return fp
}

func floodRun(t *testing.T, g *graph.Graph, radius int) floodFingerprint {
	t.Helper()
	know, res, err := CollectBallsStats(g, radius, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(res, know)
}

func compareFloodRuns(t *testing.T, name string, want, got floodFingerprint) {
	t.Helper()
	if want.rounds != got.rounds || want.messages != got.messages || want.volume != got.volume {
		t.Fatalf("%s: result mismatch: (rounds,messages,volume) = (%d,%d,%d), want (%d,%d,%d)",
			name, got.rounds, got.messages, got.volume, want.rounds, want.messages, want.volume)
	}
	if len(want.recs) != len(got.recs) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got.recs), len(want.recs))
	}
	for v, wr := range want.recs {
		gr := got.recs[v]
		if len(wr) != len(gr) {
			t.Fatalf("%s node %d: %d records, want %d", name, v, len(gr), len(wr))
		}
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("%s node %d record %d: index %d, want %d", name, v, i, gr[i], wr[i])
			}
		}
		if !slices.Equal(want.ends[v], got.ends[v]) {
			t.Fatalf("%s node %d: sphere ends %v, want %v", name, v, got.ends[v], want.ends[v])
		}
	}
}

// TestFloodDeterministicAcrossModes checks the central engine guarantee:
// every worker count produces bit-for-bit identical results — same
// counters, same per-node record sequences — on an E4/E6-style chordal
// workload.
func TestFloodDeterministicAcrossModes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"chordal": gen.RandomChordal(200, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 11),
		"ktree":   gen.KTree(150, 3, 5),
		"path":    gen.Path(64),
	}
	for name, g := range graphs {
		for _, radius := range []int{1, 3, 6} {
			var ref floodFingerprint
			withProcs(t, testProcs[0], func() { ref = floodRun(t, g, radius) })
			for _, procs := range testProcs[1:] {
				var got floodFingerprint
				withProcs(t, procs, func() { got = floodRun(t, g, radius) })
				compareFloodRuns(t, name, ref, got)
			}
		}
	}
}

// TestFloodDedupModesAgree checks that the bitmap dedup (small n) and
// the sparse-set dedup (large n) paths produce identical knowledge. The
// n threshold is a compile-time constant, so the large-n path is forced
// by hand: detach the bitmap and seed the sparse index set exactly as
// newFloodProtocol does above seenBitmapMaxN.
func TestFloodDedupModesAgree(t *testing.T) {
	g := gen.RandomChordal(120, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.4}, 3)
	ix := graph.NewIndexed(g)
	radius := 4
	run := func(forceMap bool) floodFingerprint {
		eng := NewEngineIndexed(ix, func(v graph.ID) Protocol {
			i, _ := ix.IndexOf(v)
			p := newFloodProtocol(i, ix, nil, radius, 8)
			if forceMap {
				// Disable the bitmap so dedup falls back to the sparse
				// index set, as it would for n > seenBitmapMaxN.
				p.seen = nil
				p.know.seen = nil
				p.know.known.Add(int32(i))
			}
			return p
		})
		res, err := eng.Run(radius + 1)
		if err != nil {
			t.Fatal(err)
		}
		know := make(map[graph.ID]*Knowledge, len(res.Outputs))
		for v, o := range res.Outputs {
			know[v] = o.(*Knowledge)
		}
		return fingerprint(res, know)
	}
	compareFloodRuns(t, "bitmap-vs-map", run(false), run(true))
}

// countingProtocol is a tiny stress protocol: every node broadcasts its
// ID for a fixed number of rounds and sums what it hears. It exists to
// stress the engine's inbox reuse and pooled scheduling under -race with
// a payload cheap enough for many rounds.
type countingProtocol struct {
	rounds, limit int
	sum           int64
}

func (p *countingProtocol) Init(ctx *Context) { ctx.Broadcast(int64(ctx.ID())) }
func (p *countingProtocol) Round(ctx *Context, inbox []Message) {
	if p.rounds >= p.limit {
		return
	}
	p.rounds++
	for _, m := range inbox {
		p.sum += m.Payload.(int64)
	}
	if p.rounds < p.limit {
		ctx.Broadcast(int64(ctx.ID()))
	}
}
func (p *countingProtocol) Done() bool  { return p.rounds >= p.limit }
func (p *countingProtocol) Output() any { return p.sum }

// TestEngineStressAllModes drives every swept worker count over several
// graphs; run with -race this doubles as the engine's data-race gate.
func TestEngineStressAllModes(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Cycle(97),
		gen.Star(50),
		gen.RandomChordal(80, gen.ChordalOpts{MaxCliqueSize: 5, AttachFull: 0.6}, 1),
	}
	for gi, g := range graphs {
		var ref map[graph.ID]any
		for _, procs := range testProcs {
			eng := NewEngine(g, func(v graph.ID) Protocol {
				return &countingProtocol{limit: 8}
			})
			res, err := runWithProcs(t, procs, eng, 10)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res.Outputs
				continue
			}
			for v, want := range ref {
				if res.Outputs[v] != want {
					t.Fatalf("graph %d procs %d node %d: output %v, want %v",
						gi, procs, v, res.Outputs[v], want)
				}
			}
		}
	}
}
