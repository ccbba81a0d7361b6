package svd

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHandleKeyRoundTrip(t *testing.T) {
	f := func(part, index int32) bool {
		h := Handle{Part: part, Index: index}
		return HandleFromKey(h.Key()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The ALL partition must round-trip through the negative value.
	h := Handle{Part: AllPartition, Index: 7}
	if HandleFromKey(h.Key()) != h {
		t.Fatal("ALL partition handle does not round-trip")
	}
}

func TestHandleKeyUnique(t *testing.T) {
	seen := map[uint64]Handle{}
	for p := int32(-1); p < 20; p++ {
		for i := int32(0); i < 20; i++ {
			h := Handle{Part: p, Index: i}
			if prev, dup := seen[h.Key()]; dup {
				t.Fatalf("key collision: %v and %v", prev, h)
			}
			seen[h.Key()] = h
		}
	}
}

func TestHandleString(t *testing.T) {
	if s := (Handle{Part: AllPartition, Index: 3}).String(); s != "ALL:3" {
		t.Fatalf("got %q", s)
	}
	if s := (Handle{Part: 2, Index: 5}).String(); s != "2:5" {
		t.Fatalf("got %q", s)
	}
}

func TestRegisterLookup(t *testing.T) {
	d := NewDirectory(0, 4)
	h := Handle{Part: 1, Index: d.NextIndex(1)}
	d.Register(&ControlBlock{Handle: h, Name: "A", ElemSize: 8, Block: 4, NumElems: 64})
	cb, err := d.Lookup(h)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Name != "A" {
		t.Fatalf("wrong cb: %+v", cb)
	}
}

func TestLookupUnknown(t *testing.T) {
	d := NewDirectory(0, 4)
	if _, err := d.Lookup(Handle{Part: 2, Index: 9}); err == nil {
		t.Fatal("expected error for unknown handle")
	}
}

func TestNextIndexSequential(t *testing.T) {
	d := NewDirectory(0, 4)
	for want := int32(0); want < 5; want++ {
		if got := d.NextIndex(2); got != want {
			t.Fatalf("NextIndex = %d, want %d", got, want)
		}
	}
	// Other partitions are independent.
	if got := d.NextIndex(3); got != 0 {
		t.Fatalf("partition 3 index = %d, want 0", got)
	}
	if got := d.NextIndex(AllPartition); got != 0 {
		t.Fatalf("ALL index = %d, want 0", got)
	}
}

func TestNotificationAdvancesCursor(t *testing.T) {
	// A replica that learns of index 5 via notification must not later
	// hand out 5 as a fresh index for that partition.
	d := NewDirectory(1, 4)
	d.Register(&ControlBlock{Handle: Handle{Part: 1, Index: 5}})
	if got := d.NextIndex(1); got != 6 {
		t.Fatalf("NextIndex after notification = %d, want 6", got)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDirectory(0, 4)
	h := Handle{Part: 0, Index: 0}
	d.Register(&ControlBlock{Handle: h})
	d.Register(&ControlBlock{Handle: h})
}

func TestUseAfterFree(t *testing.T) {
	d := NewDirectory(0, 4)
	h := Handle{Part: 0, Index: d.NextIndex(0)}
	d.Register(&ControlBlock{Handle: h, Name: "victim"})
	d.MarkFreed(h)
	_, err := d.Lookup(h)
	if err == nil || !strings.Contains(err.Error(), "use after free") {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDirectory(0, 4)
	h := Handle{Part: 0, Index: 0}
	d.Register(&ControlBlock{Handle: h})
	d.MarkFreed(h)
	d.MarkFreed(h)
}

func TestInvalidPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDirectory(0, 4)
	d.NextIndex(4) // only 0..3 and ALL are valid
}

func TestLiveCount(t *testing.T) {
	d := NewDirectory(0, 2)
	h0 := Handle{Part: 0, Index: d.NextIndex(0)}
	h1 := Handle{Part: AllPartition, Index: d.NextIndex(AllPartition)}
	d.Register(&ControlBlock{Handle: h0})
	d.Register(&ControlBlock{Handle: h1})
	if d.Live() != 2 {
		t.Fatalf("live = %d, want 2", d.Live())
	}
	d.MarkFreed(h0)
	if d.Live() != 1 {
		t.Fatalf("live = %d, want 1", d.Live())
	}
}

// Property: per-partition indices handed to Register via NextIndex
// never collide, across interleaved partitions.
func TestPropertyIndexUniqueness(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewDirectory(0, 8)
		seen := map[Handle]bool{}
		for _, op := range ops {
			part := int32(op % 9)
			if part == 8 {
				part = AllPartition
			}
			h := Handle{Part: part, Index: d.NextIndex(part)}
			if seen[h] {
				return false
			}
			seen[h] = true
			d.Register(&ControlBlock{Handle: h})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The scalability argument of §2.1: replica metadata is O(objects),
// independent of machine size, while the rejected full table grows
// linearly with nodes.
func TestMetadataFootprintScaling(t *testing.T) {
	mk := func(objects int) *Directory {
		d := NewDirectory(0, 64)
		for i := 0; i < objects; i++ {
			h := Handle{Part: AllPartition, Index: d.NextIndex(AllPartition)}
			d.Register(&ControlBlock{Handle: h, Name: "obj"})
		}
		return d
	}
	d := mk(10)
	svdCost := d.MetadataBytes()
	if svdCost <= 0 {
		t.Fatal("zero metadata estimate")
	}
	// Doubling objects roughly doubles the replica.
	if d2 := mk(20); d2.MetadataBytes() < svdCost*3/2 {
		t.Fatalf("metadata not object-proportional: %d vs %d", svdCost, d2.MetadataBytes())
	}
	// The full table explodes with nodes; the SVD replica does not
	// depend on them at all.
	if d.FullTableBytes(100000) <= d.FullTableBytes(100)*999/2 {
		t.Fatal("full-table estimate not node-proportional")
	}
	if d.FullTableBytes(100000) < svdCost*100 {
		t.Fatalf("at 100k nodes the full table (%d B) should dwarf the SVD replica (%d B)",
			d.FullTableBytes(100000), svdCost)
	}
}

func TestLocalsSortedAndFiltered(t *testing.T) {
	d := NewDirectory(0, 4)
	add := func(part, idx int32, local, freed bool) {
		d.Register(&ControlBlock{
			Handle:   Handle{Part: part, Index: idx},
			HasLocal: local,
			Freed:    freed,
		})
	}
	add(2, 1, true, false)
	add(0, 3, true, false)
	add(1, 0, false, false) // remote-only: excluded
	add(0, 1, true, true)   // freed: excluded
	add(2, 0, true, false)
	add(AllPartition, 0, true, false)
	got := d.Locals()
	want := []Handle{
		{Part: AllPartition, Index: 0},
		{Part: 0, Index: 3},
		{Part: 2, Index: 0},
		{Part: 2, Index: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("locals = %d entries, want %d", len(got), len(want))
	}
	for i, cb := range got {
		if cb.Handle != want[i] {
			t.Fatalf("locals[%d] = %v, want %v", i, cb.Handle, want[i])
		}
	}
}
