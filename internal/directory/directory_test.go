package directory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestProbeUncached(t *testing.T) {
	d := New(4)
	info, _ := d.Probe(42, -1)
	if info.Cached || info.Owner != -1 || info.Sharers != 0 {
		t.Fatalf("uncached probe = %+v", info)
	}
}

func TestFirstReaderBecomesCleanOwner(t *testing.T) {
	d := New(4)
	d.Merge([]RegionAccess{{Proc: 1, ReadFills: []uint64{7}}})
	info, _ := d.Probe(7, -1)
	if !info.Cached || info.Owner != 1 || info.Dirty || info.Sharers != 1 {
		t.Fatalf("probe = %+v, want clean exclusive owner 1", info)
	}
}

func TestSecondReaderSharesAndDowngrades(t *testing.T) {
	d := New(4)
	d.Merge([]RegionAccess{{Proc: 0, Writes: []uint64{7}}})
	res := d.Merge([]RegionAccess{{Proc: 2, ReadFills: []uint64{7}}})
	if len(res.Downgrades) != 1 || res.Downgrades[0] != (Invalidation{Line: 7, Proc: 0}) {
		t.Fatalf("downgrades = %v", res.Downgrades)
	}
	info, _ := d.Probe(7, -1)
	if info.Owner != -1 || info.Dirty || info.Sharers != 2 {
		t.Fatalf("probe = %+v, want shared by 2", info)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := New(4)
	d.Merge([]RegionAccess{
		{Proc: 0, ReadFills: []uint64{9}},
		{Proc: 1, ReadFills: []uint64{9}},
		{Proc: 2, ReadFills: []uint64{9}},
	})
	res := d.Merge([]RegionAccess{{Proc: 1, Writes: []uint64{9}}})
	if len(res.Invalidations) != 2 {
		t.Fatalf("invalidations = %v, want procs 0 and 2", res.Invalidations)
	}
	seen := map[int]bool{}
	for _, inv := range res.Invalidations {
		if inv.Line != 9 {
			t.Fatalf("bad line in %v", inv)
		}
		seen[inv.Proc] = true
	}
	if !seen[0] || !seen[2] || seen[1] {
		t.Fatalf("invalidation targets = %v", seen)
	}
	info, _ := d.Probe(9, -1)
	if info.Owner != 1 || !info.Dirty || info.Sharers != 1 {
		t.Fatalf("probe = %+v, want dirty owner 1", info)
	}
	if d.InvalidationsSent() != 2 {
		t.Fatalf("InvalidationsSent = %d", d.InvalidationsSent())
	}
}

func TestWriteInvalidatesDirtyOwner(t *testing.T) {
	d := New(4)
	d.Merge([]RegionAccess{{Proc: 0, Writes: []uint64{5}}})
	res := d.Merge([]RegionAccess{{Proc: 3, Writes: []uint64{5}}})
	if len(res.Invalidations) != 1 || res.Invalidations[0].Proc != 0 {
		t.Fatalf("invalidations = %v, want owner 0", res.Invalidations)
	}
	info, _ := d.Probe(5, -1)
	if info.Owner != 3 || !info.Dirty {
		t.Fatalf("probe = %+v", info)
	}
}

func TestIntraRegionSharingDetected(t *testing.T) {
	d := New(4)
	// Two writers to one line in the same region: a sharing event, last
	// writer (processor order) owns.
	res := d.Merge([]RegionAccess{
		{Proc: 0, Writes: []uint64{11}},
		{Proc: 2, Writes: []uint64{11}},
	})
	if res.SharingLines != 1 {
		t.Fatalf("SharingLines = %d, want 1", res.SharingLines)
	}
	info, _ := d.Probe(11, -1)
	if info.Owner != 2 || !info.Dirty || info.Sharers != 1 {
		t.Fatalf("probe = %+v, want owner 2", info)
	}
	if d.SharingLineEvents() != 1 {
		t.Fatal("cumulative sharing count wrong")
	}
	// Reader+writer in the same region also counts.
	res = d.Merge([]RegionAccess{
		{Proc: 1, ReadFills: []uint64{12}},
		{Proc: 3, Writes: []uint64{12}},
	})
	if res.SharingLines != 1 {
		t.Fatalf("reader+writer SharingLines = %d, want 1", res.SharingLines)
	}
	// Same processor reading and writing its own line is NOT sharing.
	res = d.Merge([]RegionAccess{{Proc: 1, ReadFills: []uint64{13}, Writes: []uint64{13}}})
	if res.SharingLines != 0 {
		t.Fatalf("self access counted as sharing")
	}
	// Multiple pure readers are not sharing either.
	res = d.Merge([]RegionAccess{
		{Proc: 0, ReadFills: []uint64{14}},
		{Proc: 1, ReadFills: []uint64{14}},
	})
	if res.SharingLines != 0 {
		t.Fatal("read-read counted as sharing")
	}
	// A processor reading and writing its own line beside another
	// processor's accesses is still not sharing; a line two processors
	// touch in different regions is not either.
	res = d.Merge([]RegionAccess{
		{Proc: 0, Writes: []uint64{16}},
		{Proc: 1, ReadFills: []uint64{15}, Writes: []uint64{15}},
	})
	if res.SharingLines != 0 {
		t.Fatal("self access beside another processor counted as sharing")
	}
	res = d.Merge([]RegionAccess{
		{Proc: 1, ReadFills: []uint64{16}},
		{Proc: 2, ReadFills: []uint64{17}},
	})
	if res.SharingLines != 0 {
		t.Fatal("a write in an earlier region counted as sharing in this one")
	}
	if d.SharingLineEvents() != 2 {
		t.Fatalf("cumulative sharing count %d, want 2", d.SharingLineEvents())
	}
}

// TestMergeBadProcPanics: a processor out of range panics before the
// merge changes the directory at all.
func TestMergeBadProcPanics(t *testing.T) {
	d := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
		if info, _ := d.Probe(1, -1); info.Cached {
			t.Fatalf("line 1 entered the directory before the bad processor was refused: %+v", info)
		}
	}()
	d.Merge([]RegionAccess{{Proc: 0, Writes: []uint64{1}}, {Proc: 2, Writes: []uint64{1}}})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for procs=0")
		}
	}()
	New(0)
}

// Property: after any random sequence of merges, every line's directory
// state is well-formed — a dirty line has exactly one sharer (its owner),
// and owner (when set) is always within range and a member of the sharer
// set.
func TestDirectoryWellFormedProperty(t *testing.T) {
	const procs = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(procs)
		for round := 0; round < 30; round++ {
			var accesses []RegionAccess
			for p := 0; p < procs; p++ {
				a := RegionAccess{Proc: p}
				seen := map[uint64]bool{}
				for k := 0; k < rng.Intn(6); k++ {
					line := uint64(rng.Intn(20))
					if seen[line] {
						continue
					}
					seen[line] = true
					if rng.Intn(2) == 0 {
						a.Writes = append(a.Writes, line)
					} else {
						a.ReadFills = append(a.ReadFills, line)
					}
				}
				accesses = append(accesses, a)
			}
			d.Merge(accesses)
			for line := uint64(0); line < 20; line++ {
				info, _ := d.Probe(line, -1)
				if !info.Cached {
					continue
				}
				if info.Dirty && (info.Owner < 0 || info.Sharers != 1) {
					return false
				}
				if info.Owner >= procs {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
