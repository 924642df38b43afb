package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/chordal"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/wire"
)

// eps is the approximation parameter of every workload: k = 4 for the
// coloring (flood radius 40), d = 128 for the MIS (flood radius 779).
const eps = 0.5

// Every run sets up at least minSetups times and for at least setupTime
// (at most maxSetups times) and reports the median set-up, and makes at
// least minPasses timed passes over its instances.
const (
	minSetups = 5
	maxSetups = 50
	setupTime = time.Second
	minPasses = 3
)

type kind int

const (
	colorDist  kind = iota // core.ColorChordalDistributed, in-process LOCAL engine
	misDist                // core.MISChordalDistributed
	colorPart2             // core.ColorChordalDistributedFaultyPart over 2 shard-host processes
	central                // core.ColorChordal, then core.MISChordal
)

// workload is one entry point and instance size. A run solves batch
// instances of the bench family gen.RandomChordalSubtree(n, 3, 6, s),
// for seeds s derived from the run's seed, so that no one instance's
// structure sets the run's figures.
type workload struct {
	name  string
	kind  kind
	n     int
	batch int
}

// workloads are the benchmark's workloads; README.md gives why each
// exists and which layers it exercises.
var workloads = []workload{
	{"color-dist", colorDist, 2000, 3},
	{"mis-dist", misDist, 2000, 1},
	{"color-part2", colorPart2, 500, 4},
	{"central", central, 200000, 1},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func instance(n int, seed int64) *graph.Graph { return gen.RandomChordalSubtree(n, 3, 6, seed) }

// outcome is what one solve returns; col and mis are nil when the
// workload does not produce them.
type outcome struct {
	col    *core.ChordalColoring
	mis    *core.ChordalMISResult
	rounds int
}

// solve runs the workload's entry point once. o is nil for untraced
// solves; part is the shard partition on color-part2.
func solve(w workload, g *graph.Graph, part *dist.Partition, o dist.RoundObserver) (outcome, error) {
	switch w.kind {
	case colorDist:
		col, err := core.ColorChordalDistributedObserved(g, eps, o, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{col: col, rounds: col.Rounds}, nil
	case misDist:
		mis, err := core.MISChordalDistributedObserved(g, eps, o, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{mis: mis, rounds: mis.Rounds}, nil
	case colorPart2:
		col, err := core.ColorChordalDistributedFaultyPart(g, eps, o, nil, nil, part)
		if err != nil {
			return outcome{}, err
		}
		return outcome{col: col, rounds: col.Rounds}, nil
	default:
		col, err := core.ColorChordalObserved(g, eps, o)
		if err != nil {
			return outcome{}, err
		}
		mis, err := core.MISChordalWithOptions(g, eps, core.ChordalMISOptions{Observer: o})
		if err != nil {
			return outcome{}, err
		}
		// ColorChordal charges no rounds; MISChordal charges Algorithm
		// 6's LOCAL schedule for its centralized simulation.
		return outcome{col: col, mis: mis, rounds: mis.Rounds}, nil
	}
}

// checker verifies solves against exact references computed once per
// instance, outside every timer.
type checker struct {
	g          *graph.Graph
	chi, alpha int
	// want is the LOCAL coloring of the same instance; partitioned
	// solves must reproduce it exactly.
	want map[graph.ID]int
}

func newChecker(w workload, g *graph.Graph) (*checker, error) {
	c := &checker{g: g}
	var err error
	if c.chi, err = chordal.CliqueNumber(g); err != nil {
		return nil, fmt.Errorf("exact χ: %w", err)
	}
	if c.alpha, err = chordal.IndependenceNumber(g); err != nil {
		return nil, fmt.Errorf("exact α: %w", err)
	}
	if w.kind == colorPart2 {
		col, err := core.ColorChordalDistributed(g, eps)
		if err != nil {
			return nil, fmt.Errorf("LOCAL reference solve: %w", err)
		}
		c.want = col.Colors
	}
	return c, nil
}

// check verifies one outcome and returns its approximation ratio: the
// worse of colors/χ and α/|I| over the outputs present.
func (c *checker) check(out outcome) (float64, error) {
	ratio := 0.0
	if out.col != nil {
		used, err := checkColoring(c.g, out.col)
		if err != nil {
			return 0, err
		}
		if c.want != nil {
			if err := sameColors(c.want, out.col.Colors); err != nil {
				return 0, fmt.Errorf("partitioned coloring differs from LOCAL: %w", err)
			}
		}
		ratio = max(ratio, float64(used)/float64(c.chi))
	}
	if out.mis != nil {
		if err := independent(c.g, out.mis.Set); err != nil {
			return 0, err
		}
		ratio = max(ratio, float64(c.alpha)/float64(len(out.mis.Set)))
	}
	if out.rounds <= 0 {
		return 0, fmt.Errorf("result reports %d rounds", out.rounds)
	}
	return ratio, nil
}

// checkColoring checks that col is a legal coloring of g within its
// palette and returns the number of colors it uses.
func checkColoring(g *graph.Graph, col *core.ChordalColoring) (int, error) {
	used, err := verify.Coloring(g, col.Colors)
	if err != nil {
		return 0, fmt.Errorf("illegal coloring: %w", err)
	}
	if used > col.Palette {
		return 0, fmt.Errorf("%d colors exceed the palette of %d", used, col.Palette)
	}
	return used, nil
}

func sameColors(want, got map[graph.ID]int) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d colored nodes, want %d", len(got), len(want))
	}
	for v, c := range want {
		if got[v] != c {
			return fmt.Errorf("node %d has color %d, want %d", v, got[v], c)
		}
	}
	return nil
}

// independent checks that set is a non-empty independent set of g in
// O(n + m); verify.IndependentSet is quadratic in |set|, too slow at the
// central workload's size.
func independent(g *graph.Graph, set graph.Set) error {
	if len(set) == 0 {
		return fmt.Errorf("empty independent set")
	}
	in := make(map[graph.ID]bool, len(set))
	for _, v := range set {
		if !g.HasNode(v) {
			return fmt.Errorf("independent set member %d is not a node", v)
		}
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.Neighbors(v) {
			if in[u] {
				return fmt.Errorf("independent set members %d and %d are adjacent", v, u)
			}
		}
	}
	return nil
}

// env is a set-up workload: the instance and, on color-part2, the
// shard-host cluster and the partition it hosts.
type env struct {
	g       *graph.Graph
	cluster *wire.Cluster
	part    *dist.Partition
}

// setUp builds the instance and, on color-part2, spawns the shard hosts
// and ships the instance to them.
func setUp(w workload, seed int64) (*env, error) {
	e := &env{g: instance(w.n, seed)}
	if w.kind != colorPart2 {
		return e, nil
	}
	if err := e.spawn(); err != nil {
		return nil, err
	}
	return e, nil
}

// spawn starts two shard hosts and ships e's instance to them.
func (e *env) spawn() error {
	cl, err := wire.StartCluster(2, wire.SelfSpawn())
	if err != nil {
		return err
	}
	e.cluster = cl
	if e.part, err = cl.Partition(graph.NewIndexed(e.g)); err != nil {
		e.close()
		return fmt.Errorf("partitioning: %w", err)
	}
	return nil
}

// close shuts the shard hosts down and reaps them.
func (e *env) close() {
	if e == nil || e.cluster == nil {
		return
	}
	if err := e.cluster.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing the cluster: %v\n", err)
	}
	e.cluster = nil
}

// seeds returns the instance seeds of a run: batch instances derived
// from the run's seed, the first of them the seed itself.
func (w workload) seeds(seed int64) []int64 {
	s := make([]int64, w.batch)
	for j := range s {
		s[j] = seed + int64(j)*1_000_003
	}
	return s
}

// setUpAll sets up every instance of the run, then sets them up again
// in turn until it has timed at least minSetups set-ups and spent
// setupTime (at most maxSetups set-ups), each from a collected heap. It
// returns the last set-up of each instance with every set-up's CPU
// time. On color-part2 a set-up's shard hosts are shut down and reaped
// within it, so that their CPU time counts; every solve spawns its own.
func setUpAll(w workload, seed int64) ([]*env, []float64, error) {
	seeds := w.seeds(seed)
	envs := make([]*env, len(seeds))
	var times []float64
	start := time.Now()
	for i := 0; i < len(seeds) || (len(times) < maxSetups && (len(times) < minSetups || time.Since(start) < setupTime)); i++ {
		j := i % len(seeds)
		runtime.GC()
		c0 := cpuSeconds()
		e, err := setUp(w, seeds[j])
		if err != nil {
			return nil, nil, err
		}
		e.close()
		times = append(times, cpuSeconds()-c0)
		envs[j] = e
	}
	return envs, times, nil
}

func closeAll(envs []*env) {
	for _, e := range envs {
		e.close()
	}
}

// cpuSeconds returns the user plus system CPU time, in seconds, of this
// process and of every child process it has reaped. CPU time excludes
// the time a virtual machine's host gives the CPU to other guests
// (steal), which wall time counts.
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return math.NaN()
		}
		total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return total
}

// runEndToEnd sets the run's instances up, then solves them with tracing
// off in whole passes over every instance until the next pass would
// overrun the measurement time, at least minPasses of them. The time
// figures are CPU time, and each instance's cheapest solve sets them:
// other load only ever adds to a solve's cost, and the first pass also
// pays for the process's heap growth. The median pass sets alloc_mib.
// Every solve is verified outside the timer.
//
// On color-part2 every solve runs on freshly spawned shard hosts, which
// are shut down and reaped after it, so that their CPU time counts: a
// host's lifetime is its start-up, the instance's partition and the
// solve.
func runEndToEnd(w workload, seed int64, seconds float64) (*tally, error) {
	if w.kind == colorPart2 {
		// The coordinator shares the cores with two shard hosts; one P
		// each keeps the three processes within the machine's cores.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	envs, setups, err := setUpAll(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer closeAll(envs)
	chks := make([]*checker, len(envs))
	for j, e := range envs {
		if chks[j], err = newChecker(w, e.g); err != nil {
			return nil, err
		}
	}
	t := newTally()
	ratios := make([]float64, len(envs))
	// solveOnce solves instance j and returns the CPU seconds it cost
	// over every process and the MiB it allocated in this one.
	solveOnce := func(j int) (float64, float64, bool) {
		e := envs[j]
		if w.kind == colorPart2 && e.cluster == nil {
			if err := e.spawn(); err != nil {
				return 0, 0, t.op("spawning shard hosts", err)
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuSeconds()
		out, err := solve(w, e.g, e.part, nil)
		runtime.ReadMemStats(&m1)
		e.close()
		cpu := cpuSeconds() - c0
		if err == nil {
			var ratio float64
			if ratio, err = chks[j].check(out); err == nil {
				ratios[j] = ratio
			}
		}
		return cpu, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), t.op("solve", err)
	}
	start := time.Now()
	var passes, allocs []float64 // per pass: its wall time, the mean MiB of its solves
	best := make([]float64, len(envs))
	for j := range best {
		best[j] = math.Inf(1)
	}
	for len(passes) < minPasses || time.Since(start).Seconds()+median(passes) <= seconds {
		p0 := time.Now()
		var mib float64
		ok := true
		for j := range envs {
			cpu, a, good := solveOnce(j)
			mib += a
			ok = ok && good
			if good {
				best[j] = min(best[j], cpu)
			}
		}
		if ok {
			passes = append(passes, time.Since(p0).Seconds())
			allocs = append(allocs, mib/float64(len(envs)))
		} else if t.failed > minPasses*len(envs) {
			break
		}
	}
	cpuS := mean(best)
	t.set("solve_cpu_s", cpuS, "s")
	t.set("nodes_per_cpu_s", float64(w.n)/cpuS, "1/s")
	t.set("setup_s", median(setups), "s")
	t.set("alloc_mib", median(allocs), "MiB")
	t.set("approx_ratio", mean(ratios), "ratio")
	return t, nil
}
