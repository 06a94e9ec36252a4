package meerkat_test

import "testing"

// BenchmarkReadOnlyTxn is the read-only fast path in its cheapest shape: one
// snapshot read, local commit — zero validation rounds, zero commit
// messages. Compare against BenchmarkTxnTimeline10/BenchmarkCommitSinglePartition
// for the two-round baseline.
func BenchmarkReadOnlyTxn(b *testing.B) {
	_, cl, keys := newHotpathCluster(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		txn.ReadOnly()
		if _, err := txn.Read(keys[0]); err != nil {
			b.Fatal(err)
		}
		if ok, err := txn.Commit(); err != nil || !ok {
			b.Fatalf("ro commit: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkReadOnlyTxnTimeline10 is the Retwis get-timeline shape on the
// fast path: ten keys in one snapshot round, local commit.
func BenchmarkReadOnlyTxnTimeline10(b *testing.B) {
	_, cl, keys := newHotpathCluster(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		txn.ReadOnly()
		if _, err := txn.ReadMany(keys); err != nil {
			b.Fatal(err)
		}
		if ok, err := txn.Commit(); err != nil || !ok {
			b.Fatalf("ro commit: ok=%v err=%v", ok, err)
		}
	}
}

// TestReadOnlyTxnAllocGate pins the read-only commit's end-to-end allocation
// count (coordinator + transport + the whole replica group's handlers, since
// AllocsPerRun counts global mallocs). Dropping the validation round must
// not smuggle in churn: the snapshot path measured 12 allocs/op at
// introduction, below the classic validated read transaction's 16, and 4
// once replies were pooled (DESIGN.md §7); the gate leaves one object of
// headroom.
func TestReadOnlyTxnAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	_, cl, keys := newHotpathCluster(t, 1)
	commit := func() {
		txn := cl.Begin()
		txn.ReadOnly()
		if _, err := txn.Read(keys[0]); err != nil {
			t.Fatal(err)
		}
		if ok, err := txn.Commit(); err != nil || !ok {
			t.Fatalf("ro commit: ok=%v err=%v", ok, err)
		}
		if !txn.CommittedReadOnly() {
			t.Fatal("fast path not taken; the gate would measure the wrong path")
		}
	}
	commit() // warm the coordinator's reusable timers and scratch
	allocs := testing.AllocsPerRun(200, commit)
	if allocs > 5 {
		t.Fatalf("read-only commit allocated %v objects/op, want <= 5", allocs)
	}
}

// TestEmptyTxnCommitsFree double-checks the empty-transaction short-circuit
// from outside the package: no messages and no per-commit heap garbage.
func TestEmptyTxnCommitsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	cluster, cl, _ := newHotpathCluster(t, 1)
	commit := func() {
		txn := cl.Begin()
		if ok, err := txn.Commit(); err != nil || !ok {
			t.Fatalf("empty commit: ok=%v err=%v", ok, err)
		}
	}
	commit()
	sent0, _, _ := cluster.NetworkStats()
	allocs := testing.AllocsPerRun(100, commit)
	sent1, _, _ := cluster.NetworkStats()
	if sent1 != sent0 {
		t.Fatalf("empty commits sent %d messages, want 0", sent1-sent0)
	}
	if allocs > 1 { // the Txn itself
		t.Fatalf("empty commit allocated %v objects/op, want <= 1", allocs)
	}
}
