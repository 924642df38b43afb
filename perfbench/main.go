// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the run's verified operation counts and its
// metrics:
//
//	perfbench --workload color-dist --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times whole solves with tracing off and prints the
// end-to-end metrics; with --trace 1 it times direct calls into each
// layer and reads obs.Summarize over an obs.Collector, and prints the
// per-layer metrics. README.md names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/wire"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's one-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts verified operations; a failed check is a failed
// operation, never a crash.
type tally struct {
	attempted, failed int
	metrics           map[string]metric
}

func newTally() *tally { return &tally{metrics: make(map[string]metric)} }

// op records one operation's outcome, logging a failure to stderr.
func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// set records a metric. JSON has no NaN or Inf, which a ratio over a
// failed measurement can produce; those read 0.
func (t *tally) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	t.metrics[name] = metric{Value: value, Unit: unit}
}

func (t *tally) report() report {
	return report{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   t.metrics,
	}
}

func main() {
	// Shard hosts for color-part2 are re-executions of this binary.
	wire.MaybeShardHost()
	// A shard host is single-threaded by design; one P keeps its GC and
	// network threads from competing with the other two processes of a
	// partitioned solve for the machine's cores. Shard hosts inherit it.
	os.Setenv("GOMAXPROCS", "1")
	os.Exit(run(os.Args[1:]))
}

// run parses the arguments, runs one workload and prints its report. It
// returns the process exit code; every cluster it starts is closed and
// reaped before it returns.
func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "instance seed")
	seconds := fs.Float64("seconds", 20, "measurement time of an end-to-end run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s) and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var t *tally
	var err error
	if *trace == 1 {
		t, err = runLayers(w, workloads, *seed)
	} else {
		t, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(t.report())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the report: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
