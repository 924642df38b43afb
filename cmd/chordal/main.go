// Command chordal runs the paper's algorithms on a chordal graph loaded
// from a JSON file ({"nodes": [...], "edges": [[u,v], ...]}) or generated
// on the fly, and prints the result plus quality statistics.
//
// Usage:
//
//	chordal -alg color     -eps 0.25 -in graph.json
//	chordal -alg color-dist -eps 0.5 -gen random -n 200 -seed 7
//	chordal -alg color-dist -eps 0.5 -gen random -n 200 -trace run.jsonl -cpuprofile cpu.pprof
//	chordal -alg mis        -eps 0.25 -gen interval -n 500
//	chordal -alg forest     -in graph.json
//	chordal -alg gen        -gen random -n 100 -out graph.json
//
// The distributed algorithms (color-dist, mis-dist) accept -trace to
// stream a JSONL round trace of every engine run, and -faults to attach
// a deterministic fault schedule (drop=P,dup=P,delay=D,crash=NODE@ROUND,
// seeded by -fault-seed) to those runs — duplication and delay are
// absorbed, drops and crashes surface as diagnosable errors;
// -cpuprofile, -memprofile, and -pprof profile any invocation.
//
// -metrics attaches the deep-metrics collector (obs schema v3) to the
// paper pipelines (color, color-dist, mis, mis-dist): per-kernel
// worker spans, phase timeline spans, and per-phase heap/GC snapshots,
// printed as aggregate tables on stderr after the run. Combine with
// -trace to persist the records for cmd/tracestat; metrics never change
// the computed result.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/chordal"
	"repro/internal/cliquetree"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/peel"
	"repro/internal/verify"
	"repro/internal/wire"
)

// beforeShutdown, when set, is called with the -pprof server's bound
// address after the run and before the server shuts down; tests use it
// to read /debug/vars from a finished run.
var beforeShutdown func(bound string)

func main() {
	// When re-executed as a shard host (-partitions spawns copies of this
	// binary), serve the shard and exit before touching flags.
	wire.MaybeShardHost()
	var (
		alg        = flag.String("alg", "color", "algorithm: color | color-dist | color-any | stats | recognize | mis | mis-dist | mis-interval | exact-color | exact-mis | greedy | luby | forest | check | gen")
		eps        = flag.Float64("eps", 0.25, "approximation parameter ε")
		in         = flag.String("in", "", "input graph JSON (omit to generate)")
		out        = flag.String("out", "", "output file for -alg gen (default stdout)")
		genKind    = flag.String("gen", "random", "generator when -in absent: random | interval | tree | path | ktree")
		n          = flag.Int("n", 200, "generated graph size")
		maxClique  = flag.Int("maxclique", 5, "generator clique-size parameter")
		seed       = flag.Int64("seed", 1, "generator seed")
		trace      = flag.String("trace", "", "write a JSONL round trace (color-dist and mis-dist only)")
		metrics    = flag.Bool("metrics", false, "collect deep kernel metrics (worker spans, phase timelines, heap snapshots) and print aggregate tables to stderr; works with color, color-dist, mis, mis-dist")
		partitions = flag.Int("partitions", 0, "run the message-passing phases on this many shard-host child processes (color-dist and mis-dist only; 0 = in-process LOCAL engine; results are byte-identical)")
		faults     = flag.String("faults", "", "fault spec drop=P,dup=P,delay=D,crash=NODE@ROUND (color-dist and mis-dist only)")
		faultSeed  = flag.Uint64("fault-seed", 7, "seed of the deterministic fault schedule used by -faults")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address for the duration of the run, plus the round counters under /debug/vars with -trace or -metrics")
		decideWork = flag.Int("decide-workers", 0, "worker count of the pruning decide kernel (0 = GOMAXPROCS, 1 = sequential; outputs are bit-identical for every value)")
		workers    = flag.Int("workers", 0, "worker count of the pure-compute pipeline stages: peeling path measurement, per-path coloring, MIS components, correction setup (0 = GOMAXPROCS, 1 = sequential; outputs are bit-identical for every value)")
	)
	flag.Parse()
	core.DefaultDecideWorkers = *decideWork
	core.DefaultStageWorkers = *workers
	peel.DefaultWorkers = *workers

	if err := run(*alg, *eps, *in, *out, *genKind, *n, *maxClique, *seed, *partitions,
		*trace, *metrics, *faults, *faultSeed, *cpuprofile, *memprofile, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "chordal:", err)
		os.Exit(1)
	}
}

func run(alg string, eps float64, in, out, genKind string, n, maxClique int, seed int64, partitions int,
	trace string, metrics bool, faults string, faultSeed uint64, cpuprofile, memprofile, pprofAddr string) error {
	if cpuprofile != "" {
		stop, err := obs.StartCPUProfile(cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "chordal:", err)
			}
		}()
	}
	if memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "chordal:", err)
			}
		}()
	}
	// reg backs the -pprof server's /debug/vars; the run's collector
	// (-trace or -metrics) keeps its round counters current.
	var reg *obs.Registry
	if pprofAddr != "" {
		reg = obs.NewRegistry()
		shutdown, bound, err := obs.Serve(pprofAddr, reg)
		if err != nil {
			return err
		}
		defer func() {
			if beforeShutdown != nil {
				beforeShutdown(bound)
			}
			shutdown()
		}()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/ (vars: /debug/vars)\n", bound)
	}
	// The observer is nil unless -trace or -metrics is given, so plain
	// runs keep the engine's zero-cost fast path.
	var observer dist.RoundObserver
	var collector *obs.Collector
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			return err
		}
		defer f.Close()
		collector = obs.NewCollector()
		collector.SetTrace(f)
	}
	if metrics {
		if collector == nil {
			collector = obs.NewCollector()
		}
		collector.SetMemStats(true)
	}
	if collector != nil {
		observer = collector
		collector.SetRegistry(reg)
		defer func() {
			// Finish closes the last phase span (and flushes its opt-in
			// mem snapshot) before the trace file's deferred Close runs.
			if err := collector.Finish(); err != nil {
				fmt.Fprintln(os.Stderr, "chordal: trace:", err)
			}
			if metrics {
				if err := obs.WriteReport(os.Stderr, obs.Summarize(collector.Events())); err != nil {
					fmt.Fprintln(os.Stderr, "chordal: metrics:", err)
				}
			}
		}()
	}

	// The fault plan is nil unless -faults is given, so unfaulted runs
	// keep the engine's zero-cost delivery path.
	var faultPlan *dist.Faults
	if faults != "" {
		if alg != "color-dist" && alg != "mis-dist" {
			return fmt.Errorf("-faults applies to the distributed algorithms (color-dist, mis-dist)")
		}
		var err error
		if faultPlan, err = dist.ParseFaults(faults, faultSeed); err != nil {
			if dist.IsInactive(err) {
				return fmt.Errorf("-faults %q parses to a schedule that can never fire (all rates zero, no crashes); fix the spec or drop the flag for a fault-free run", faults)
			}
			return err
		}
	}

	g, err := loadOrGenerate(in, genKind, n, maxClique, seed)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d chordal=%v\n", g.NumNodes(), g.NumEdges(), chordal.IsChordal(g))

	// The partition is nil unless -partitions is given; the distributed
	// pipelines then host the graph on shard-host child processes (copies
	// of this binary, see MaybeShardHost) instead of the LOCAL engine.
	var part *dist.Partition
	if partitions > 0 {
		if alg != "color-dist" && alg != "mis-dist" {
			return fmt.Errorf("-partitions applies to the distributed algorithms (color-dist, mis-dist)")
		}
		cluster, err := wire.StartCluster(partitions, wire.SelfSpawn())
		if err != nil {
			return err
		}
		defer func() {
			if err := cluster.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "chordal:", err)
			}
		}()
		if part, err = cluster.Partition(graph.NewIndexed(g)); err != nil {
			return err
		}
	}

	switch alg {
	case "gen":
		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return g.WriteJSON(w)

	case "check":
		if !chordal.IsChordal(g) {
			return fmt.Errorf("graph is not chordal")
		}
		omega, err := chordal.CliqueNumber(g)
		if err != nil {
			return err
		}
		alpha, err := chordal.IndependenceNumber(g)
		if err != nil {
			return err
		}
		fmt.Printf("χ = ω = %d, α = %d\n", omega, alpha)
		return nil

	case "stats":
		degeneracy, _ := g.Degeneracy()
		fmt.Printf("Δ = %d, degeneracy = %d, components = %d, diameter = %d\n",
			g.MaxDegree(), degeneracy, len(g.Components()), g.Diameter())
		if chordal.IsChordal(g) {
			omega, err := chordal.CliqueNumber(g)
			if err != nil {
				return err
			}
			alpha, err := chordal.IndependenceNumber(g)
			if err != nil {
				return err
			}
			fmt.Printf("chordal: χ = ω = %d (degeneracy+1 = %d), α = %d, interval = %v\n",
				omega, degeneracy+1, alpha, interval.IsInterval(g))
		}
		return nil

	case "recognize":
		path, model, err := interval.Recognize(g)
		if err != nil {
			return err
		}
		fmt.Printf("interval graph: %d maximal cliques in consecutive order\n", len(path))
		for _, iv := range model[:min(10, len(model))] {
			fmt.Printf("  node %d ↦ [%.0f, %.0f]\n", iv.Node, iv.Lo, iv.Hi)
		}
		if len(model) > 10 {
			fmt.Printf("  … %d more\n", len(model)-10)
		}
		return nil

	case "forest":
		f, err := cliquetree.New(g)
		if err != nil {
			return err
		}
		fmt.Printf("clique forest: %d maximal cliques, %d edges, %d components, linear=%v\n",
			f.NumVertices(), len(f.Edges()), len(f.Components()), f.IsLinear())
		for _, e := range f.Edges() {
			fmt.Printf("  %v -- %v\n", f.Clique(e[0]), f.Clique(e[1]))
		}
		return nil

	case "color":
		if collector != nil {
			collector.SetPhase("color")
		}
		res, err := core.ColorChordalObserved(g, eps, observer)
		if err != nil {
			return err
		}
		return reportColoring(g, res.Colors, res.Omega, res.Palette, 0)

	case "color-dist":
		var peelTrace func(peel.LayerEvent)
		if collector != nil {
			peelTrace = collector.PeelTrace()
		}
		var res *core.ChordalColoring
		if part != nil {
			res, err = core.ColorChordalDistributedFaultyPart(g, eps, observer, peelTrace, faultPlan, part)
		} else {
			res, err = core.ColorChordalDistributedFaulty(g, eps, observer, peelTrace, faultPlan)
		}
		if err != nil {
			return err
		}
		return reportColoring(g, res.Colors, res.Omega, res.Palette, res.Rounds)

	case "color-any":
		// Future-work pipeline (paper Section 9): triangulate, then color.
		tri, fill := chordal.FillIn(g)
		res, err := core.ColorChordal(tri, eps)
		if err != nil {
			return err
		}
		fmt.Printf("triangulation added %d fill edges\n", len(fill))
		return reportColoring(g, res.Colors, res.Omega, res.Palette, 0)

	case "mis-dist":
		var peelTrace func(peel.LayerEvent)
		if collector != nil {
			peelTrace = collector.PeelTrace()
		}
		var res *core.ChordalMISResult
		if part != nil {
			res, err = core.MISChordalDistributedFaultyPart(g, eps, observer, peelTrace, faultPlan, part)
		} else {
			res, err = core.MISChordalDistributedFaulty(g, eps, observer, peelTrace, faultPlan)
		}
		if err != nil {
			return err
		}
		return reportMIS(g, res.Set, res.Rounds)

	case "exact-color":
		colors, err := chordal.OptimalColoring(g)
		if err != nil {
			return err
		}
		used, err := verify.Coloring(g, colors)
		if err != nil {
			return err
		}
		fmt.Printf("optimal coloring: %d colors\n", used)
		return nil

	case "mis":
		if collector != nil {
			collector.SetPhase("mis")
		}
		res, err := core.MISChordalWithOptions(g, eps, core.ChordalMISOptions{Observer: observer})
		if err != nil {
			return err
		}
		return reportMIS(g, res.Set, res.Rounds)

	case "mis-interval":
		idBound := maxID(g) + 1
		res, err := core.MISInterval(g, eps, idBound)
		if err != nil {
			return err
		}
		return reportMIS(g, res.Set, res.Rounds)

	case "exact-mis":
		is, err := chordal.MaximumIndependentSet(g)
		if err != nil {
			return err
		}
		fmt.Printf("maximum independent set: %d nodes\n", len(is))
		return nil

	case "greedy":
		colors := baseline.GreedyColoring(g)
		used, err := verify.Coloring(g, colors)
		if err != nil {
			return err
		}
		fmt.Printf("greedy coloring: %d colors (Δ+1 = %d)\n", used, g.MaxDegree()+1)
		return nil

	case "luby":
		is, rounds, err := baseline.LubyMIS(g, seed)
		if err != nil {
			return err
		}
		return reportMIS(g, is, rounds)

	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}
}

func loadOrGenerate(in, genKind string, n, maxClique int, seed int64) (*graph.Graph, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadJSON(f)
	}
	switch genKind {
	case "random":
		return gen.RandomChordal(n, gen.ChordalOpts{MaxCliqueSize: maxClique, AttachFull: 0.4}, seed), nil
	case "interval":
		return gen.RandomInterval(n, float64(n)/5, 3, seed), nil
	case "tree":
		return gen.Tree(n, seed), nil
	case "path":
		return gen.Path(n), nil
	case "ktree":
		return gen.KTree(n, maxClique, seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", genKind)
	}
}

func reportColoring(g *graph.Graph, colors map[graph.ID]int, omega, palette, rounds int) error {
	used, err := verify.Coloring(g, colors)
	if err != nil {
		return fmt.Errorf("illegal coloring produced: %w", err)
	}
	fmt.Printf("coloring: %d colors, χ = %d, guarantee ≤ %d, ratio = %.4f\n",
		used, omega, palette, float64(used)/float64(omega))
	if rounds > 0 {
		fmt.Printf("LOCAL rounds: %d\n", rounds)
	}
	return nil
}

func reportMIS(g *graph.Graph, is graph.Set, rounds int) error {
	if err := verify.IndependentSet(g, is); err != nil {
		return fmt.Errorf("dependent set produced: %w", err)
	}
	alpha, err := chordal.IndependenceNumber(g)
	if err != nil {
		return err
	}
	fmt.Printf("independent set: %d nodes, α = %d, ratio = %.4f\n",
		len(is), alpha, float64(alpha)/float64(len(is)))
	if rounds > 0 {
		fmt.Printf("LOCAL rounds: %d\n", rounds)
	}
	return nil
}

func maxID(g *graph.Graph) int {
	max := 0
	for _, v := range g.Nodes() {
		if int(v) > max {
			max = int(v)
		}
	}
	return max
}
