package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMain makes the test binary a valid shard host: when re-executed
// with the spawn environment set (the cluster tests use SelfSpawn), the
// process serves its shard and exits before any test runs.
func TestMain(m *testing.M) {
	MaybeShardHost()
	os.Exit(m.Run())
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	n, err := writeFrame(bw, kindStep, stepMsg{Round: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("writeFrame reported %d bytes, wrote %d", n, buf.Len())
	}
	n2, err := writeFrame(bw, kindShutdown, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 5 {
		t.Fatalf("bodyless frame is %d bytes, want 5", n2)
	}
	br := bufio.NewReader(&buf)
	kind, body, size, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindStep || size != n {
		t.Fatalf("read (kind %d, %d bytes), want (kind %d, %d bytes)", kind, size, kindStep, n)
	}
	var msg stepMsg
	if err := decodeBody(body, &msg); err != nil {
		t.Fatal(err)
	}
	if msg.Round != 7 {
		t.Fatalf("round %d, want 7", msg.Round)
	}
	kind, body, _, err = readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindShutdown || len(body) != 0 {
		t.Fatalf("read (kind %d, %d body bytes), want bodyless shutdown", kind, len(body))
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, kindStep}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// servedPartition hosts parts shard ranges on goroutines behind real
// TCP connections: the full wire protocol without child processes, so
// failures are debuggable in one process. The cleanup joins every
// serve goroutine.
func servedPartition(t *testing.T, ix *graph.Indexed, parts int) (*dist.Partition, []*Link, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, parts)
	for s := 0; s < parts; s++ {
		go func(shard int) {
			conn, err := DialRetry(ln.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			bw := bufio.NewWriterSize(conn, 1<<16)
			if _, err := writeFrame(bw, kindHello, helloMsg{Shard: shard}); err != nil {
				done <- err
				return
			}
			done <- ServeConn(conn, bw)
		}(s)
	}
	links := make([]*Link, parts)
	for i := 0; i < parts; i++ {
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		l := newLink(conn)
		shard, err := l.readHello()
		if err != nil {
			t.Fatal(err)
		}
		l.shard = shard
		links[shard] = l
	}
	ln.Close()
	ids, rowPtr, colIdx := ix.CSR()
	for _, l := range links {
		if err := l.beginSession(ids, rowPtr, colIdx); err != nil {
			t.Fatal(err)
		}
	}
	p := &dist.Partition{Ranges: dist.SplitRange(ix.NumNodes(), parts)}
	for _, l := range links {
		if err := l.awaitSession(); err != nil {
			t.Fatal(err)
		}
		p.Links = append(p.Links, l)
	}
	cleanup := func() {
		for _, l := range links {
			l.Close()
		}
		for i := 0; i < parts; i++ {
			if err := <-done; err != nil {
				t.Errorf("serve goroutine: %v", err)
			}
		}
	}
	return p, links, cleanup
}

// checkSameKnowledge compares two balls through the exported Knowledge
// API (the dist package's own partition tests pin field-level
// equality; here the wire transport must preserve it).
func checkSameKnowledge(t *testing.T, at string, n int, a, b *dist.Knowledge) {
	t.Helper()
	if a.Center != b.Center || a.Radius != b.Radius || a.RecordCount() != b.RecordCount() {
		t.Fatalf("%s: knowledge header (%d, %d, %d) != (%d, %d, %d)", at,
			a.Center, a.Radius, a.RecordCount(), b.Center, b.Radius, b.RecordCount())
	}
	for i := 0; i < a.RecordCount(); i++ {
		ai, ad := a.RecordAt(i)
		bi, bd := b.RecordAt(i)
		if ai != bi || ad != bd {
			t.Fatalf("%s: record %d (idx %d dist %d) != (idx %d dist %d)", at, i, ai, ad, bi, bd)
		}
	}
	for i := int32(0); int(i) < n; i++ {
		if a.KnownIdx(i) != b.KnownIdx(i) {
			t.Fatalf("%s: KnownIdx(%d) diverges", at, i)
		}
	}
	if a.CoversComponent() != b.CoversComponent() {
		t.Fatalf("%s: CoversComponent diverges", at)
	}
}

// wireRecorder captures round stats plus the WireRound extension.
type wireRecorder struct {
	rounds []dist.RoundStats
	wire   [][3]int64
}

func (o *wireRecorder) RunStart(nodes, edges int)    {}
func (o *wireRecorder) RoundStart(round, shards int) {}
func (o *wireRecorder) ShardStart(shard int)         {}
func (o *wireRecorder) ShardEnd(shard int)           {}
func (o *wireRecorder) RoundEnd(s dist.RoundStats)   { o.rounds = append(o.rounds, s) }
func (o *wireRecorder) RunEnd(rounds int)            {}
func (o *wireRecorder) WireRound(round int, in, out int64) {
	o.wire = append(o.wire, [3]int64{int64(round), in, out})
}

func TestServedLinksMatchLocal(t *testing.T) {
	g := gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 7)
	ix := graph.NewIndexed(g)
	n := ix.NumNodes()
	notes := make([]any, n)
	for i := range notes {
		if i%2 == 0 {
			notes[i] = i
		}
	}
	for _, spec := range []string{"", "drop=0.1,dup=0.2,delay=1"} {
		var lf, pf *dist.Faults
		var err error
		if spec != "" {
			if lf, err = dist.ParseFaults(spec, 5); err != nil {
				t.Fatal(err)
			}
			if pf, err = dist.ParseFaults(spec, 5); err != nil {
				t.Fatal(err)
			}
		}
		lKs, lRes, err := dist.CollectBallsByIndex(ix, 3, notes, nil, lf)
		if err != nil {
			t.Fatalf("%q: local: %v", spec, err)
		}
		part, links, cleanup := servedPartition(t, ix, 3)
		obs := &wireRecorder{}
		pKs, pRes, err := dist.CollectBallsByIndexPart(part, ix, 3, notes, obs, pf)
		if err != nil {
			t.Fatalf("%q: wire: %v", spec, err)
		}
		if lRes.Rounds != pRes.Rounds || lRes.Messages != pRes.Messages || lRes.Volume != pRes.Volume ||
			lRes.Dropped != pRes.Dropped || lRes.Duplicated != pRes.Duplicated || lRes.Stall != pRes.Stall {
			t.Fatalf("%q: results diverge: local %+v wire %+v", spec, lRes, pRes)
		}
		for i := range lKs {
			checkSameKnowledge(t, fmt.Sprintf("%q idx %d", spec, i), n, lKs[i], pKs[i])
		}
		if len(obs.wire) != len(obs.rounds) {
			t.Fatalf("%q: %d WireRound calls for %d rounds", spec, len(obs.wire), len(obs.rounds))
		}
		for _, w := range obs.wire {
			if w[1] <= 0 || w[2] <= 0 {
				t.Fatalf("%q: round %d moved (%d in, %d out) bytes on the wire", spec, w[0], w[1], w[2])
			}
		}
		for _, l := range links {
			in, out := l.WireBytes()
			if in <= 0 || out <= 0 {
				t.Fatalf("%q: shard %d meter (%d, %d)", spec, l.Shard(), in, out)
			}
		}
		cleanup()
	}
}

func TestClusterProcessesMatchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cl, err := StartCluster(2, SelfSpawn())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}()
	// Two graphs through the same cluster: sessions are re-sendable.
	graphs := []*graph.Graph{
		gen.RandomChordal(70, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 3),
		gen.Path(25),
	}
	for gi, g := range graphs {
		ix := graph.NewIndexed(g)
		n := ix.NumNodes()
		for _, spec := range []string{"", "drop=0.15,dup=0.1"} {
			var lf, pf *dist.Faults
			if spec != "" {
				if lf, err = dist.ParseFaults(spec, 11); err != nil {
					t.Fatal(err)
				}
				if pf, err = dist.ParseFaults(spec, 11); err != nil {
					t.Fatal(err)
				}
			}
			lKs, lRes, err := dist.CollectBallsByIndex(ix, 2, nil, nil, lf)
			if err != nil {
				t.Fatalf("graph %d %q: local: %v", gi, spec, err)
			}
			part, err := cl.Partition(ix)
			if err != nil {
				t.Fatalf("graph %d %q: partition: %v", gi, spec, err)
			}
			pKs, pRes, err := dist.CollectBallsByIndexPart(part, ix, 2, nil, nil, pf)
			if err != nil {
				t.Fatalf("graph %d %q: cluster: %v", gi, spec, err)
			}
			if lRes.Rounds != pRes.Rounds || lRes.Messages != pRes.Messages || lRes.Volume != pRes.Volume ||
				lRes.Dropped != pRes.Dropped || lRes.Duplicated != pRes.Duplicated {
				t.Fatalf("graph %d %q: results diverge: local %+v cluster %+v", gi, spec, lRes, pRes)
			}
			for i := range lKs {
				checkSameKnowledge(t, fmt.Sprintf("graph %d %q idx %d", gi, spec, i), n, lKs[i], pKs[i])
			}
		}
	}
}

func TestDialRetryWaitsForListener(t *testing.T) {
	// Reserve an address, close it, and bring the listener up only
	// after a delay: DialRetry must ride its backoff schedule through
	// the gap.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	accepted := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			accepted <- err
			return
		}
		defer ln2.Close()
		conn, err := ln2.Accept()
		if err == nil {
			conn.Close()
		}
		accepted <- err
	}()
	conn, err := DialRetry(addr)
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	conn.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("delayed listener: %v", err)
	}
}
