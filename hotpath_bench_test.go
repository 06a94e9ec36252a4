package meerkat_test

import (
	"fmt"
	"testing"

	"meerkat"
)

// newHotpathCluster builds a default single-partition cluster with nkeys
// pre-loaded keys and one client, for the end-to-end hot-path benchmarks.
func newHotpathCluster(tb testing.TB, nkeys int) (*meerkat.Cluster, *meerkat.Client, []string) {
	tb.Helper()
	cluster, err := meerkat.NewCluster(meerkat.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cluster.Close)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
		cluster.Load(keys[i], []byte("v"))
	}
	cl, err := cluster.NewClient()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return cluster, cl, keys
}

// BenchmarkCommitSinglePartition is the end-to-end commit hot path in its
// cheapest shape: one read, one write, single partition — so the validate
// phase runs inline with the coordinator's reusable timers and scratch.
// Allocation counts here gate the churn-free fan-out (see EXPERIMENTS.md).
func BenchmarkCommitSinglePartition(b *testing.B) {
	_, cl, keys := newHotpathCluster(b, 1)
	val := []byte("v2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		if _, err := txn.Read(keys[0]); err != nil {
			b.Fatal(err)
		}
		txn.Write(keys[0], val)
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnTimeline10 is the Retwis get-timeline shape: a read-only
// transaction over ten keys, batched through ReadMany into one execution
// round trip.
func BenchmarkTxnTimeline10(b *testing.B) {
	_, cl, keys := newHotpathCluster(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		if _, err := txn.ReadMany(keys); err != nil {
			b.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCommitSinglePartitionAllocGate pins the single-partition commit's
// allocation count, end to end (coordinator + transport + all three
// replicas' handler goroutines, since AllocsPerRun counts global mallocs).
// The pre-batching baseline was 39 allocs/op and the churn-free fan-out 14;
// pooled replies and unicast reads (DESIGN.md §7) measure 9, and the gate
// leaves one object of headroom.
func TestCommitSinglePartitionAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	_, cl, keys := newHotpathCluster(t, 1)
	val := []byte("v2")
	commit := func() {
		txn := cl.Begin()
		if _, err := txn.Read(keys[0]); err != nil {
			t.Fatal(err)
		}
		txn.Write(keys[0], val)
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // warm the coordinator's reusable timers and scratch
	allocs := testing.AllocsPerRun(200, commit)
	if allocs > 10 {
		t.Fatalf("single-partition commit allocated %v objects/op, want <= 10 (baseline before de-churn: 39)", allocs)
	}
}

// BenchmarkCommitIncrement is the op-only commit shape: one server-side
// increment, no read round trip — the hot-counter pattern the commutative
// ops exist for.
func BenchmarkCommitIncrement(b *testing.B) {
	_, cl, keys := newHotpathCluster(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := cl.Begin()
		txn.Add(keys[0], 1)
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCommitIncrementAllocGate pins the op-only commit's allocation count:
// shipping the operation instead of read-version + blind write must not add
// hot-path churn (the op entries ride the same pooled messages and scratch
// buffers). It measures 12; the gate leaves one object of headroom.
func TestCommitIncrementAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	_, cl, keys := newHotpathCluster(t, 1)
	commit := func() {
		txn := cl.Begin()
		txn.Add(keys[0], 1)
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // warm the coordinator's reusable timers and scratch
	allocs := testing.AllocsPerRun(200, commit)
	if allocs > 13 {
		t.Fatalf("op-only commit allocated %v objects/op, want <= 13", allocs)
	}
}
