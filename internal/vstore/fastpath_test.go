package vstore

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"meerkat/internal/timestamp"
)

// TestReadFastPathZeroAllocs is the regression gate for the lock-free read
// path: a read hit must be two atomic loads and a map probe — no locks, no
// allocations.
func TestReadFastPathZeroAllocs(t *testing.T) {
	s := New(Config{})
	s.Load("hot", []byte("v"), timestamp.Timestamp{Time: 1, ClientID: 1})
	// Warm the index so the key is promoted from the dirty map to the
	// published read map (promotion follows enough read-map misses).
	for i := 0; i < 64; i++ {
		s.Read("hot")
	}
	key := "hot"
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.Read(key); !ok {
			t.Fatal("read miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("fast-path read allocated %v objects/op, want 0", allocs)
	}
}

// TestReadAtFastPath checks both ReadAt paths: the lock-free latest-version
// hit and the locked history walk.
func TestReadAtFastPath(t *testing.T) {
	s := New(Config{})
	for i := 1; i <= 4; i++ {
		s.Load("k", []byte{byte(i)}, timestamp.Timestamp{Time: int64(10 * i), ClientID: 1})
	}
	// Fast path: ts at or above the latest version.
	if v, ok, _ := s.ReadAt("k", timestamp.Timestamp{Time: 100, ClientID: 1}); !ok || v.Value[0] != 4 {
		t.Fatalf("ReadAt(100) = %v, %v", v, ok)
	}
	// Slow path: ts between older versions.
	if v, ok, _ := s.ReadAt("k", timestamp.Timestamp{Time: 25, ClientID: 1}); !ok || v.Value[0] != 2 {
		t.Fatalf("ReadAt(25) = %v, %v", v, ok)
	}
	// Below the oldest version.
	if _, ok, _ := s.ReadAt("k", timestamp.Timestamp{Time: 5, ClientID: 1}); ok {
		t.Fatal("ReadAt(5) found a version")
	}
}

// TestConcurrentReadersNeverTorn runs lock-free readers against writers
// installing versions and asserts no reader ever observes a torn or
// uncommitted version: every value self-describes the timestamp it was
// committed at, and per-key observed timestamps never move backwards.
// Run with -race (the CI race job does) to also verify the memory model.
func TestConcurrentReadersNeverTorn(t *testing.T) {
	const (
		keys    = 16
		writers = 4
		readers = 4
		rounds  = 2000
	)
	s := New(Config{})
	keyName := func(k int) string { return fmt.Sprintf("key%02d", k) }

	// value encodes (time, clientID) so a reader can check value<->WTS
	// consistency: a torn read would pair one version's value with another's
	// timestamp.
	mkVal := func(ts timestamp.Timestamp) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b[:8], uint64(ts.Time))
		binary.LittleEndian.PutUint64(b[8:], ts.ClientID)
		return b
	}

	var stop atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 1; i <= rounds; i++ {
				ts := timestamp.Timestamp{Time: int64(i), ClientID: uint64(w + 1)}
				k := keyName((w*7 + i) % keys)
				if !s.ValidateWrite(k, ts) {
					continue
				}
				s.CommitWrite(k, mkVal(ts), ts)
			}
		}(w)
	}

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			last := make(map[string]timestamp.Timestamp, keys)
			for i := 0; !stop.Load(); i++ {
				k := keyName((r*3 + i) % keys)
				v, ok := s.Read(k)
				if !ok {
					continue
				}
				if len(v.Value) != 16 {
					errs <- fmt.Errorf("torn value: %d bytes", len(v.Value))
					return
				}
				got := timestamp.Timestamp{
					Time:     int64(binary.LittleEndian.Uint64(v.Value[:8])),
					ClientID: binary.LittleEndian.Uint64(v.Value[8:]),
				}
				if got != v.WTS {
					errs <- fmt.Errorf("torn read on %s: value says %v, WTS says %v", k, got, v.WTS)
					return
				}
				if prev, seen := last[k]; seen && v.WTS.Less(prev) {
					errs <- fmt.Errorf("non-monotonic read on %s: %v after %v", k, v.WTS, prev)
					return
				}
				last[k] = v.WTS
			}
		}(r)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// BenchmarkVstoreRead measures the lock-free read hit under parallelism —
// the YCSB-T read hot path.
func BenchmarkVstoreRead(b *testing.B) {
	s := New(Config{})
	const n = 1024
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
		s.Load(keys[i], []byte("value"), timestamp.Timestamp{Time: 1, ClientID: 1})
	}
	for _, k := range keys { // promote every key into the read map
		s.Read(k)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := s.Read(keys[i&(n-1)]); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
}
