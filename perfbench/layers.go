package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/peel"
	"repro/internal/wire"
)

// runLayers is the traced run of workload w: it times direct calls into
// each layer's exported functions and reads obs.Summarize over
// obs.Collectors. A probe of a layer the workload's solve reaches runs on
// the workload's own instance. A probe of a layer it never reaches runs
// on the bench-family instance (same seed) of the workload in table that
// does: the message-passing layers at color-dist's size for central, the
// wire layer at color-part2's size for every other workload. So every
// traced run prints every per-layer metric, and a workload's unreached
// layers serve as its control.
func runLayers(w workload, table []workload, seed int64) (*tally, error) {
	t := newTally()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var gens, snaps []float64
	var g *graph.Graph
	for i := 0; i < minSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		g = instance(w.n, seed)
		gens = append(gens, time.Since(t0).Seconds())
		runtime.GC()
		t0 = time.Now()
		graph.NewIndexed(g)
		snaps = append(snaps, time.Since(t0).Seconds())
	}
	t.set("gen.instance_s", median(gens), "s")
	t.set("graph.snapshot_s", median(snaps), "s")

	// The message-passing probes' instance.
	gd := g
	if w.kind == central {
		gd = instance(sizeOf(table, colorDist), seed)
	}
	radius := 10 * core.EffectiveK(eps)
	if w.kind == misDist {
		d, _ := core.MISChordalParams(eps)
		radius = 3*(2*d+3) + 2
	}
	floodProbe(t, gd, seed, radius)

	if err := solveProbe(t, w, seed); err != nil {
		return nil, err
	}
	centralProbes(t, w, g)
	pruneSum := correctionProbe(t, gd)
	if w.kind == central {
		pruneMetrics(t, pruneSum)
	}
	gw := g
	if w.kind != colorPart2 {
		gw = instance(sizeOf(table, colorPart2), seed)
	}
	wireProbe(t, gw)

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// The probes force collections between measurements; count the others.
	gcs := (ms1.NumGC - ms1.NumForcedGC) - (ms0.NumGC - ms0.NumForcedGC)
	t.set("process.gc_count", float64(gcs), "count")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	t.set("process.peak_rss_mib", float64(ru.Maxrss)/1024, "MiB") // Maxrss is in KiB on Linux
	return t, nil
}

// sizeOf returns the instance size of the first workload of kind k.
func sizeOf(table []workload, k kind) int {
	for _, w := range table {
		if w.kind == k {
			return w.n
		}
	}
	panic(fmt.Sprintf("no workload of kind %d", k))
}

// flood is one measured dist.CollectBallsByIndex call.
type flood struct {
	seconds                  float64
	rounds, messages, volume int
	records                  int
	mib                      float64
}

// measureFlood floods g's snapshot to the given radius from collected
// heaps, holding the knowledge across a forced GC so the heap growth it
// reports is what the knowledge keeps alive. It checks sampled balls
// against a breadth-first search.
func measureFlood(g *graph.Graph, radius int) (flood, error) {
	ix := graph.NewIndexed(g)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	know, res, err := dist.CollectBallsByIndex(ix, radius, nil, nil, nil)
	dt := time.Since(t0).Seconds()
	if err != nil {
		return flood{}, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	f := flood{
		seconds:  dt,
		rounds:   res.Rounds,
		messages: res.Messages,
		volume:   res.Volume,
		mib:      float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20),
	}
	for _, k := range know {
		f.records += k.RecordCount()
	}
	n := ix.NumNodes()
	for s := 0; s < 16 && s < n; s++ {
		i := s * n / 16
		if want := ballSize(ix, i, radius); know[i].RecordCount() != want {
			return flood{}, fmt.Errorf("node %d knows %d nodes, its radius-%d ball has %d",
				ix.IDOf(i), know[i].RecordCount(), radius, want)
		}
	}
	runtime.KeepAlive(know)
	return f, nil
}

// ballSize counts the nodes within distance radius of index i.
func ballSize(ix *graph.Indexed, i, radius int) int {
	depth := map[int32]int{int32(i): 0}
	queue := []int32{int32(i)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if depth[u] == radius {
			continue
		}
		for _, v := range ix.NeighborIndices(int(u)) {
			if _, ok := depth[v]; !ok {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return len(depth)
}

// floodProbe measures the flood on g and on the half-size instance of
// the same seed, for the fitted scaling exponents.
func floodProbe(t *tally, g *graph.Graph, seed int64, radius int) {
	n := g.NumNodes()
	f, err := measureFlood(g, radius)
	if !t.op("flood", err) {
		return
	}
	half, err := measureFlood(instance(n/2, seed), radius)
	if !t.op("half-size flood", err) {
		return
	}
	t.set("dist.flood_s", f.seconds, "s")
	t.set("dist.flood_rounds", float64(f.rounds), "count")
	t.set("dist.flood_messages", float64(f.messages), "count")
	t.set("dist.flood_volume", float64(f.volume), "count")
	t.set("dist.records_per_s", float64(f.volume)/f.seconds, "1/s")
	t.set("dist.knowledge_records", float64(f.records), "count")
	t.set("dist.knowledge_mib", f.mib, "MiB")
	scale := math.Log(float64(n) / float64(n/2))
	t.set("dist.volume_exp", math.Log(float64(f.volume)/float64(half.volume))/scale, "exp")
	t.set("dist.knowledge_mib_exp", math.Log(f.mib/half.mib)/scale, "exp")
}

// solveProbe solves the workload untraced and then traced, and reports
// the tracing overhead and, on the distributed workloads, the prune and
// decide breakdown of the traced solve.
func solveProbe(t *tally, w workload, seed int64) error {
	e, err := setUp(w, seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	g := e.g
	chk, err := newChecker(w, g)
	if err != nil {
		return err
	}
	timed := func(o dist.RoundObserver) (float64, bool) {
		runtime.GC()
		t0 := time.Now()
		out, err := solve(w, g, e.part, o)
		dt := time.Since(t0).Seconds()
		if err == nil {
			_, err = chk.check(out)
			t.set("rounds", float64(out.rounds), "count")
		}
		return dt, t.op("solve", err)
	}
	plain, ok1 := timed(nil)
	if ok1 {
		t.set("solve_wall_s", plain, "s")
	}
	c := obs.NewCollector()
	tracedS, ok2 := timed(c)
	if err := c.Finish(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if ok1 && ok2 {
		t.set("obs.overhead_pct", 100*(tracedS-plain)/plain, "%")
	}
	if w.kind != central {
		pruneMetrics(t, obs.Summarize(c.Events()))
	}
	return nil
}

// pruneMetrics reports the prune floods ("prune-iNN" phases and their
// engine rounds) and the decide kernel of one traced pipeline.
func pruneMetrics(t *tally, s *obs.Summary) {
	var wall, p99 int64
	iterations := 0
	for _, p := range s.Phases {
		if strings.HasPrefix(p.Phase, "prune-i") {
			wall += p.WallNS
			p99 = max(p99, p.P99NS)
			iterations++
		}
	}
	imbalance := 0.0
	for _, k := range s.Kernels {
		if strings.HasPrefix(k.Kernel, "engine[prune-i") {
			imbalance = max(imbalance, k.Imbalance)
		}
	}
	d := kernel(s, "decide")
	t.set("core.prune.wall_s", float64(wall)/1e9, "s")
	t.set("core.prune.iterations", float64(iterations), "count")
	t.set("core.prune.round_p99_ms", float64(p99)/1e6, "ms")
	t.set("core.prune.engine_imbalance", imbalance, "ratio")
	t.set("core.decide.wall_s", float64(d.WallNS)/1e9, "s")
	t.set("core.decide.busy_s", float64(d.BusyNS)/1e9, "s")
	t.set("core.decide.imbalance", d.Imbalance, "ratio")
	t.set("core.decide.centers", float64(d.Items), "count")
}

func kernel(s *obs.Summary, name string) obs.KernelAgg {
	for _, k := range s.Kernels {
		if k.Kernel == name {
			return k
		}
	}
	return obs.KernelAgg{Kernel: name}
}

func phase(s *obs.Summary, name string) obs.PhaseAgg {
	for _, p := range s.Phases {
		if p.Phase == name {
			return p
		}
	}
	return obs.PhaseAgg{Phase: name}
}

// traced runs f under a fresh Collector and returns f's wall time and
// the collector's summary.
func traced(f func(c *obs.Collector) error) (float64, *obs.Summary, error) {
	runtime.GC()
	c := obs.NewCollector()
	t0 := time.Now()
	err := f(c)
	dt := time.Since(t0).Seconds()
	if ferr := c.Finish(); err == nil && ferr != nil {
		err = fmt.Errorf("trace: %w", ferr)
	}
	return dt, obs.Summarize(c.Events()), err
}

// centralProbes times the centralized layers on g: the peel with the
// workload's options, and the coloring and MIS stages.
func centralProbes(t *tally, w workload, g *graph.Graph) {
	k := core.EffectiveK(eps)
	opts := peel.Options{InternalDiameter: 3 * k, NoForests: true}
	if w.kind == misDist {
		d, iterations := core.MISChordalParams(eps)
		opts = peel.Options{InternalDiameter: 2*d + 3, MaxIterations: iterations, FinalAlpha: d, NoForests: true}
	}
	var res *peel.Result
	dt, s, err := traced(func(c *obs.Collector) error {
		opts.Observer = c
		var err error
		res, err = peel.Run(g, opts)
		return err
	})
	if err == nil {
		if l := len(res.NodeLayers()); l == 0 || (opts.MaxIterations == 0 && l != g.NumNodes()) {
			err = fmt.Errorf("peel assigned layers to %d of %d nodes", l, g.NumNodes())
		}
	}
	if t.op("peel", err) {
		t.set("peel.s", dt, "s")
		t.set("peel.layers", float64(len(res.Layers)), "count")
		t.set("peel.measure_wall_s", float64(kernel(s, "peel-measure").WallNS)/1e9, "s")
	}

	dt, s, err = traced(func(c *obs.Collector) error {
		col, err := core.ColorChordalObserved(g, eps, c)
		if err == nil {
			_, err = checkColoring(g, col)
		}
		return err
	})
	if t.op("color stage", err) {
		t.set("core.color.s", dt, "s")
		t.set("core.color.paths_wall_s", float64(kernel(s, "color-paths").WallNS)/1e9, "s")
	}

	dt, s, err = traced(func(c *obs.Collector) error {
		mis, err := core.MISChordalWithOptions(g, eps, core.ChordalMISOptions{Observer: c})
		if err == nil {
			err = independent(g, mis.Set)
		}
		return err
	})
	if t.op("MIS stage", err) {
		t.set("core.mis.s", dt, "s")
		t.set("core.mis.components_wall_s", float64(kernel(s, "mis-components").WallNS)/1e9, "s")
	}
}

// correctionProbe runs the coloring's distributed prune traced, then a
// direct traced core.RunCorrectionPhase call fed its outcome and the
// core.ColorChordal colors. It returns the prune's summary.
func correctionProbe(t *tally, g *graph.Graph) *obs.Summary {
	k := core.EffectiveK(eps)
	var out *core.PruneOutcome
	_, pruneSum, err := traced(func(c *obs.Collector) error {
		var err error
		out, err = core.DistributedPruneSpec(g, core.PruneSpec{DiamThreshold: 3 * k, Radius: 10 * k, Observer: c})
		return err
	})
	if !t.op("distributed prune", err) {
		return pruneSum
	}
	col, err := core.ColorChordal(g, eps)
	if err == nil {
		_, err = checkColoring(g, col)
	}
	if !t.op("coloring", err) {
		return pruneSum
	}
	rounds := 0
	dt, s, err := traced(func(c *obs.Collector) error {
		c.SetPhase("correction")
		var err error
		rounds, err = core.RunCorrectionPhaseObserved(g, out.Layer, out.Parent, col.Colors, k, c)
		return err
	})
	if t.op("correction", err) {
		p := phase(s, "correction")
		t.set("core.correction.s", dt, "s")
		t.set("core.correction.rounds", float64(rounds), "count")
		t.set("core.correction.messages", float64(p.Messages), "count")
		t.set("core.correction.max_inbox", float64(p.MaxInbox), "count")
	}
	return pruneSum
}

// wireProbe starts a 2-shard cluster, partitions g onto it, and solves
// the coloring partitioned and then in-process, both traced; the two
// colorings must be identical.
func wireProbe(t *tally, g *graph.Graph) {
	t0 := time.Now()
	cl, err := wire.StartCluster(2, wire.SelfSpawn())
	if !t.op("cluster start", err) {
		return
	}
	e := &env{g: g, cluster: cl}
	defer e.close()
	e.part, err = cl.Partition(graph.NewIndexed(g))
	setup := time.Since(t0).Seconds()
	if !t.op("partition", err) {
		return
	}
	in0, out0 := wireBytes(e.part)
	var part, local *core.ChordalColoring
	partS, s, err := traced(func(c *obs.Collector) error {
		var err error
		part, err = core.ColorChordalDistributedFaultyPart(g, eps, c, nil, nil, e.part)
		return err
	})
	if !t.op("partitioned solve", err) {
		return
	}
	in1, out1 := wireBytes(e.part)
	localS, _, err := traced(func(c *obs.Collector) error {
		var err error
		local, err = core.ColorChordalDistributedObserved(g, eps, c, nil)
		return err
	})
	if err == nil {
		err = sameColors(local.Colors, part.Colors)
	}
	if !t.op("partitioned solve matches LOCAL", err) {
		return
	}
	volume, prune := 0, int64(0)
	for _, p := range s.Phases {
		volume += p.Volume
		if strings.HasPrefix(p.Phase, "prune-i") {
			prune += p.WallNS
		}
	}
	in, out := in1-in0, out1-out0
	t.set("wire.setup_s", setup, "s")
	t.set("wire.in_mib", float64(in)/(1<<20), "MiB")
	t.set("wire.out_mib", float64(out)/(1<<20), "MiB")
	t.set("wire.bytes_per_record", float64(in+out)/float64(volume), "B")
	t.set("wire.overhead_x", partS/localS, "x")
	t.set("wire.prune.wall_s", float64(prune)/1e9, "s")
	t.set("wire.correction.wall_s", float64(phase(s, "correction").WallNS)/1e9, "s")
}

// wireBytes sums the bytes received from and sent to the shard hosts.
func wireBytes(p *dist.Partition) (in, out int64) {
	for _, l := range p.Links {
		if m, ok := l.(dist.WireMeter); ok {
			i, o := m.WireBytes()
			in += i
			out += o
		}
	}
	return in, out
}
