// Command experiments regenerates every experiment table from DESIGN.md's
// per-experiment index (E1–E21); EXPERIMENTS.md records a full run.
//
// Usage:
//
//	experiments [-quick] [-only E7,E13]
//	experiments [-quick] -trace out.jsonl [-faults drop=0.2,dup=0.2,delay=2] [-fault-seed 7]
//	experiments [-quick] -trace out.jsonl [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-pprof 127.0.0.1:6060]
//
// With -trace the command runs the round-tracing workload (the full
// distributed coloring of the Figure-1 graph plus flooding and peeling
// on a 10^4-node random chordal graph — 10^3 with -quick) and streams a
// JSONL trace, one event per engine round. Adding -faults switches to
// the fault-injection workload: the spec is
// drop=P,dup=P,delay=D,crash=NODE@ROUND (any subset), the schedule is a
// pure function of -fault-seed, and the trace carries the schema-v2
// fault fields. The profiling flags work with or without -trace; they
// wrap whatever workload the invocation runs.
//
// -metrics runs the same tracing workload with the deep-metrics
// collector (obs schema v3): per-kernel worker spans, phase timeline
// spans, and per-phase heap/GC snapshots, printed as aggregate tables
// on stderr. It works with or without -trace (without, the records stay
// in memory and only the tables appear).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/peel"
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
	quick := flag.Bool("quick", false, "shrink parameter sweeps for a fast run")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E7); empty = all")
	trace := flag.String("trace", "", "write a JSONL round trace of the tracing workload to this file (skips the tables)")
	metrics := flag.Bool("metrics", false, "run the tracing workload with deep kernel metrics (worker spans, phase timelines, heap snapshots) and print aggregate tables to stderr (skips the experiment tables)")
	partitions := flag.Int("partitions", 0, "run the -trace workload's message-passing stages on this many shard-host child processes (0 = in-process LOCAL engine; deterministic trace fields are byte-identical)")
	faults := flag.String("faults", "", "fault spec drop=P,dup=P,delay=D,crash=NODE@ROUND for the -trace workload")
	faultSeed := flag.Uint64("fault-seed", 7, "seed of the deterministic fault schedule used by -faults")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for the duration of the run, plus the round counters under /debug/vars with -trace or -metrics")
	decideWork := flag.Int("decide-workers", 0, "worker count of the pruning decide kernel (0 = GOMAXPROCS, 1 = sequential; tables are bit-identical for every value)")
	workers := flag.Int("workers", 0, "worker count of the pure-compute pipeline stages: peeling path measurement, per-path coloring, MIS components, correction setup (0 = GOMAXPROCS, 1 = sequential; tables are bit-identical for every value)")
	flag.Parse()
	core.DefaultDecideWorkers = *decideWork
	core.DefaultStageWorkers = *workers
	peel.DefaultWorkers = *workers

	if err := run(*quick, *only, *trace, *metrics, *partitions, *faults, *faultSeed, *cpuprofile, *memprofile, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(quick bool, only, trace string, metrics bool, partitions int, faults string, faultSeed uint64, cpuprofile, memprofile, pprofAddr string) error {
	if cpuprofile != "" {
		stop, err := obs.StartCPUProfile(cpuprofile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
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

	if faults != "" && trace == "" && !metrics {
		return fmt.Errorf("-faults applies to the tracing workload; pass -trace or -metrics too")
	}
	if partitions > 0 && trace == "" && !metrics {
		return fmt.Errorf("-partitions applies to the tracing workload; pass -trace or -metrics too")
	}
	if trace != "" || metrics {
		c := obs.NewCollector()
		var f *os.File
		if trace != "" {
			var err error
			if f, err = os.Create(trace); err != nil {
				return err
			}
			defer f.Close()
			c.SetTrace(f)
		}
		if metrics {
			c.SetMemStats(true)
		}
		c.SetRegistry(reg)
		// With -partitions the workload's message-passing stages run on
		// shard-host child processes (copies of this binary, see
		// MaybeShardHost); the partitioner re-sessions the fleet for each
		// graph the workload visits.
		var partFor exp.Partitioner
		if partitions > 0 {
			cluster, err := wire.StartCluster(partitions, wire.SelfSpawn())
			if err != nil {
				return err
			}
			defer func() {
				if err := cluster.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}()
			partFor = func(ix *graph.Indexed) (*dist.Partition, error) {
				return cluster.Partition(ix)
			}
		}
		if faults != "" {
			plan, err := dist.ParseFaults(faults, faultSeed)
			if err != nil {
				if dist.IsInactive(err) {
					return fmt.Errorf("-faults %q parses to a schedule that can never fire (all rates zero, no crashes); fix the spec or drop the flag for a fault-free run", faults)
				}
				return err
			}
			if err := exp.FaultTraceRunCollectorPart(c, quick, plan, partFor); err != nil {
				return err
			}
		} else if err := exp.TraceRunCollectorPart(c, quick, partFor); err != nil {
			return err
		}
		if metrics {
			if err := obs.WriteReport(os.Stderr, obs.Summarize(c.Events())); err != nil {
				return err
			}
		}
		if f != nil {
			return f.Close()
		}
		return nil
	}

	if only == "" {
		return exp.All(os.Stdout, quick)
	}
	wanted := make(map[string]bool)
	for _, id := range strings.Split(only, ",") {
		wanted[strings.TrimSpace(strings.ToUpper(id))] = true
	}
	runs := map[string]func(bool) (*exp.Table, error){
		"E1": exp.E1Fig12, "E2": exp.E2Fig34, "E3": exp.E3Fig56,
		"E4": exp.E4PruningLayers, "E5": exp.E5MVCApproximation,
		"E6": exp.E6MVCRounds, "E7": exp.E7ColIntGraph, "E8": exp.E8Recoloring,
		"E9": exp.E9IntervalMIS, "E10": exp.E10IntervalMISRounds,
		"E11": exp.E11ChordalMIS, "E12": exp.E12ChordalMISRounds,
		"E13": exp.E13LowerBound, "E14": exp.E14Baselines,
		"E15": exp.E15LocalViewCoherence, "E16": exp.E16BeyondChordal,
		"E17": exp.E17MessageComplexity, "E18": exp.E18RoundTrace,
		"E19": exp.E19PeelTrace, "E20": exp.E20FaultMatrix,
		"E21": exp.E21RetransFlood,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
		"E20", "E21"}
	for _, id := range order {
		if !wanted[id] {
			continue
		}
		tbl, err := runs[id](quick)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		tbl.Fprint(os.Stdout)
	}
	return nil
}
