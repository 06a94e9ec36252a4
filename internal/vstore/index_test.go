package vstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestIndexConcurrentCreateOneEntry races many creators of one fresh key:
// every caller must get the same entry, or pending registrations made
// through one copy would be invisible to validations through another.
func TestIndexConcurrentCreateOneEntry(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := New(Config{Shards: 1})
		key := fmt.Sprintf("fresh%d", round)
		const n = 8
		got := make([]*entry, n)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < n; i++ {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				got[i] = s.getOrCreate(key)
			}(i)
		}
		start.Done()
		done.Wait()
		for i := 1; i < n; i++ {
			if got[i] != got[0] {
				t.Fatalf("round %d: creator %d got a different entry", round, i)
			}
		}
		if s.Len() != 1 {
			t.Fatalf("round %d: Len = %d, want 1", round, s.Len())
		}
	}
}

// TestIndexUnpromotedKeysVisible checks every access path on keys that
// still sit in the dirty map: Read, Range, Len, Counts, and
// ExportShardSince must see them before any promotion.
func TestIndexUnpromotedKeysVisible(t *testing.T) {
	s := New(Config{Shards: 1})
	for i := 0; i < 4; i++ {
		s.Load(fmt.Sprintf("old%d", i), []byte("v"), ts(1))
	}
	s.Read("old0") // the first miss after a bulk load promotes
	if s.shards[0].read.Load().amended {
		t.Fatal("first batch not promoted")
	}
	s.Load("new0", []byte("v"), ts(2))
	s.Load("new1", []byte("v"), ts(2))
	if !s.shards[0].read.Load().amended {
		t.Fatal("new keys did not land in the dirty map")
	}

	if v, ok := s.Read("new0"); !ok || v.WTS != ts(2) {
		t.Fatalf("Read(new0) = %+v, %v", v, ok)
	}
	if n := s.Len(); n != 6 {
		t.Fatalf("Len = %d, want 6", n)
	}
	s.Load("new2", []byte("v"), ts(2)) // lands after Len's promotion
	seen := map[string]bool{}
	s.Range(func(k string, _ Version) bool {
		seen[k] = true
		return true
	})
	for _, k := range []string{"old0", "old3", "new0", "new1", "new2"} {
		if !seen[k] {
			t.Fatalf("Range missed %q", k)
		}
	}
	s.Load("new3", []byte("v"), ts(2))
	if keys, versions := s.Counts(); keys != 8 || versions != 8 {
		t.Fatalf("Counts = %d keys, %d versions, want 8, 8", keys, versions)
	}
	s.Load("new4", []byte("v"), ts(3))
	exported := s.ExportShardSince(0, ts(2), 0)
	if len(exported) != 1 || exported[0].Key != "new4" {
		t.Fatalf("ExportShardSince(ts 2) = %+v, want just new4", exported)
	}
}

// TestIndexPromotionAmortized bulk-creates keys with no reads in between,
// the shape of a preload: creations take the lock anyway, so they must not
// trigger a copy of the read map per insert. The first read after the load
// promotes, since the inserts already paid for the copy.
func TestIndexPromotionAmortized(t *testing.T) {
	s := New(Config{Shards: 1})
	const n = 4096
	for i := 0; i < n; i++ {
		s.Load(fmt.Sprintf("k%05d", i), []byte("v"), ts(1))
	}
	ix := &s.shards[0]
	if len(ix.read.Load().m) != 0 || len(ix.dirty) != n {
		t.Fatalf("preload promoted: read %d dirty %d", len(ix.read.Load().m), len(ix.dirty))
	}
	if _, ok := s.Read("k00000"); !ok {
		t.Fatal("k00000 missing")
	}
	if r := ix.read.Load(); r.amended || len(r.m) != n {
		t.Fatalf("after the first read: amended=%v read holds %d, want a promoted map of %d", r.amended, len(r.m), n)
	}

	// One fresh key in a large shard stays in the dirty map until the
	// misses on it pay for copying the read map.
	s.Load("fresh", []byte("v"), ts(1))
	for i := 0; i < n-2; i++ {
		s.Read("fresh")
	}
	if !ix.read.Load().amended {
		t.Fatalf("promoted after %d misses, want to wait for about %d", n-2, n)
	}
	s.Read("fresh")
	if r := ix.read.Load(); r.amended || len(r.m) != n+1 {
		t.Fatalf("not promoted after %d misses: amended=%v len %d", n-1, r.amended, len(r.m))
	}
}

// TestVersionArrayCappedAtMaxVersions pins the version chain's backing
// array: a hot key keeps MaxVersions versions in an array of exactly that
// capacity instead of doubling past it before trimming.
func TestVersionArrayCappedAtMaxVersions(t *testing.T) {
	for _, maxV := range []int{1, 2, 3, 8} {
		s := New(Config{MaxVersions: maxV})
		for i := 1; i <= 40; i++ {
			s.CommitWrite("k", []byte{byte(i)}, ts(int64(i)))
			e := s.get("k")
			if len(e.versions) > maxV || cap(e.versions) > maxV {
				t.Fatalf("MaxVersions %d, after %d writes: len %d cap %d", maxV, i, len(e.versions), cap(e.versions))
			}
		}
		vs := s.Versions("k")
		if len(vs) != maxV || vs[len(vs)-1].WTS != ts(40) || vs[0].WTS != ts(int64(41-maxV)) {
			t.Fatalf("MaxVersions %d: chain %v", maxV, vs)
		}
	}
}

// TestSnapshotReadBelowTrimmedHistory: when every retained version is newer
// than the snapshot and older ones were trimmed, the value at the snapshot
// is unknown. The reply must not confirm "never written" — the bound drops
// to Zero so the coordinator falls back — and ReadAt reports it unknown.
func TestSnapshotReadBelowTrimmedHistory(t *testing.T) {
	s := New(Config{MaxVersions: 2})
	s.CommitWrite("k", []byte("v1"), ts(10))
	s.CommitWrite("k", []byte("v2"), ts(20))
	s.CommitWrite("k", []byte("v3"), ts(30)) // trims v1

	v, bound, ok := s.SnapshotRead("k", ts(15))
	if ok || !bound.IsZero() {
		t.Fatalf("SnapshotRead(15) = %+v bound %v ok %v, want unconfirmed (Zero bound)", v, bound, ok)
	}
	if _, ok, known := s.ReadAt("k", ts(15)); ok || known {
		t.Fatalf("ReadAt(15): ok=%v known=%v, want unknown", ok, known)
	}

	// Retained history still answers, and confirms.
	if v, bound, ok := s.SnapshotRead("k", ts(25)); !ok || string(v.Value) != "v2" || bound != ts(25) {
		t.Fatalf("SnapshotRead(25) = %+v bound %v ok %v, want v2 confirmed", v, bound, ok)
	}
	// A key with untrimmed history below its first write was truly absent.
	s.CommitWrite("j", []byte("x"), ts(30))
	if _, bound, ok := s.SnapshotRead("j", ts(15)); ok || bound != ts(15) {
		t.Fatalf("SnapshotRead(j@15): bound %v ok %v, want confirmed absent", bound, ok)
	}
	if _, ok, known := s.ReadAt("j", ts(15)); ok || !known {
		t.Fatalf("ReadAt(j@15): ok=%v known=%v, want known absent", ok, known)
	}
}

// TestSnapshotReadBelowImportedState: a state-transfer import carries only
// the latest version, so a snapshot below it is unknown too.
func TestSnapshotReadBelowImportedState(t *testing.T) {
	s := New(Config{})
	s.ImportState([]KeyState{{Key: "k", Value: []byte("v"), WTS: ts(20)}})
	if _, bound, ok := s.SnapshotRead("k", ts(10)); ok || !bound.IsZero() {
		t.Fatalf("SnapshotRead below import: bound %v ok %v, want Zero bound", bound, ok)
	}
	if _, bound, ok := s.SnapshotRead("k", ts(25)); !ok || bound != ts(25) {
		t.Fatalf("SnapshotRead above import: bound %v ok %v", bound, ok)
	}
}
