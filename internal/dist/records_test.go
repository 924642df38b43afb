package dist

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFloodNotesAreAsOfTheFlood pins the note-table contract: a flood
// run copies the caller's by-index note table once, so rewriting the
// table afterwards — as the pruning phase does to its layer table
// between iterations — leaves every returned Knowledge reading the notes
// as of the flood. Checked in-process and on a three-shard partition,
// for the plain and the retransmitting flood, through the by-ID
// accessors Note and DistOf.
func TestFloodNotesAreAsOfTheFlood(t *testing.T) {
	g := gen.RandomChordal(90, gen.ChordalOpts{MaxCliqueSize: 4, AttachFull: 0.5}, 29)
	ix := graph.NewIndexed(g)
	const radius = 3
	notes := testNotes(ix)
	want := slices.Clone(notes)

	runs := map[string][]*Knowledge{}
	var err error
	if runs["local"], _, err = CollectBallsByIndex(ix, radius, notes, nil, nil); err != nil {
		t.Fatal(err)
	}
	if runs["parts3"], _, err = CollectBallsByIndexPart(NewLocalPartition(ix, 3), ix, radius, notes, nil, nil); err != nil {
		t.Fatal(err)
	}
	if runs["retrans-parts3"], _, err = CollectBallsRetransPart(NewLocalPartition(ix, 3), ix, radius, 4*radius+10, notes, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Rewrite the caller's table in place, every entry.
	for i := range notes {
		notes[i] = 1000 + i
	}

	for name, ks := range runs {
		for c, k := range ks {
			d, _ := bfsDist(ix, c)
			for i, v := range ix.IDs() {
				in := d[i] >= 0 && d[i] <= radius
				var wantNote any
				if in {
					wantNote = want[i]
				}
				if got := k.Note(v); got != wantNote {
					t.Fatalf("%s: center %d reads note %v for %d, want %v as of the flood", name, ix.IDOf(c), got, v, wantNote)
				}
				if got, ok := k.DistOf(v); ok != in || (in && got != int(d[i])) {
					t.Fatalf("%s: center %d DistOf(%d) = (%d, %v), want (%d, %v)", name, ix.IDOf(c), v, got, ok, d[i], in)
				}
			}
		}
	}
}

// hasPointers reports whether values of type t hold any pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestFloodRetainedFootprint floods a bench-family instance with a
// radius beyond its diameter, so every node holds its whole component,
// and measures across a forced GC what the returned knowledge keeps
// alive: at most 12 B per record (an int32 index, the record slice's
// slack, and the per-node bitmap and sphere offsets amortized over the
// ball). The record types must hold no pointers, so the GC never scans
// the records. Not parallel: it reads the process heap.
func TestFloodRetainedFootprint(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(infoBatch(nil)).Elem(),
		reflect.TypeOf(Knowledge{}.recs).Elem(),
		reflect.TypeOf(Knowledge{}.ends).Elem(),
		reflect.TypeOf(retransRec{}),
	} {
		if hasPointers(typ) {
			t.Fatalf("flood record type %v holds pointers", typ)
		}
	}

	g := gen.RandomChordalSubtree(1000, 3, 6, 1)
	ix := graph.NewIndexed(g)
	d, comp := bfsDist(ix, 0)
	if comp != ix.NumNodes() {
		t.Fatalf("bench instance is disconnected: component of %d nodes", comp)
	}
	radius := 2 * int(slices.Max(d)) // ≥ diameter

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	know, _, err := CollectBallsByIndex(ix, radius, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	records := 0
	for _, k := range know {
		if k.RecordCount() != comp {
			t.Fatalf("node %d holds %d records, want its whole component of %d", k.Center, k.RecordCount(), comp)
		}
		records += k.RecordCount()
	}
	retained := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	perRecord := float64(retained) / float64(records)
	t.Logf("%d records retain %d B (%.2f B/record)", records, retained, perRecord)
	if perRecord > 12 {
		t.Fatalf("knowledge retains %.2f B per record, want ≤ 12", perRecord)
	}
	runtime.KeepAlive(know)
}
