package main

import (
	"strings"
	"testing"

	"meerkat/internal/timestamp"
)

// A Run call whose first body aborted and whose second committed:
//
//	run       [0, 100)
//	body 1    [5, 30)   read_many [10, 20)
//	body 2    [50, 80)  read_many [55, 70)
func syntheticRun() []span {
	return []span{
		{txn: 7, parent: -1, kind: spanRun, start: 0, end: 100},
		{txn: 7, parent: 0, kind: spanBody, start: 5, end: 30},
		{txn: 7, parent: 1, kind: spanReadMany, start: 10, end: 20},
		// Recorded out of start order, as a log may hold them.
		{txn: 7, parent: 0, kind: spanBody, start: 50, end: 80},
		{txn: 7, parent: 3, kind: spanReadMany, start: 55, end: 70},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(syntheticRun())
	want := []int64{100 - 25 - 30, 25 - 10, 10, 30 - 15, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 40},
		{parent: 0, start: 30, end: 60},  // overlaps the first child
		{parent: 0, start: 90, end: 120}, // runs past the parent's end
	}
	if got := selfTimes(spans)[0]; got != 100-50-10 {
		t.Fatalf("self time %d, want %d", got, 100-50-10)
	}
}

func TestSplitRuns(t *testing.T) {
	spans := syntheticRun()
	spans[1], spans[3] = spans[3], spans[1] // bodies out of order
	spans[2].parent, spans[4].parent = 3, 1
	rs := splitRuns(spans)
	if len(rs) != 1 {
		t.Fatalf("%d runs, want 1", len(rs))
	}
	r := rs[0]
	if r.total != 100 || r.readMany != 25 || r.commit != 20 || r.retryWait != 20 || r.bodies != 2 {
		t.Fatalf("split %+v, want total 100, read_many 25, commit 20, retry wait 20, 2 bodies", r)
	}
	if len(r.readManyCalls) != 2 {
		t.Fatalf("%d ReadMany durations, want 2", len(r.readManyCalls))
	}
}

func TestQuantileAndBeyond(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(1000 - i) // 1..1000, reversed
	}
	s := sortedCopy(xs)
	for _, c := range []struct {
		q      float64
		want   int64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
		if got := beyond(len(s), c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", len(s), c.q, got, c.beyond)
		}
	}
	if xs[0] != 1000 {
		t.Fatal("sortedCopy reordered its input")
	}
	if quantile(nil, 0.5) != 0 || quantile([]int64{7}, 0.99) != 7 {
		t.Fatal("quantile of empty or single-sample input")
	}
	if got := medianFloat([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
}

func TestCounterValueRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 7, 999, 1 << 40} {
		v := counterValue(n)
		if len(v) != valueSize {
			t.Fatalf("counterValue(%d) has %d bytes", n, len(v))
		}
		if got, err := parseCounter(v); err != nil || got != n {
			t.Fatalf("parseCounter(counterValue(%d)) = %d, %v", n, got, err)
		}
	}
	if w, ok := writerOf(writerValue(0xabc)); !ok || w != 0xabc {
		t.Fatalf("writerOf(writerValue(0xabc)) = %x, %v", w, ok)
	}
	if _, ok := writerOf(initialValue); ok {
		t.Fatal("the initial value names a writer")
	}
}

// Two read-modify-writes both read 5 and both committed 6: one increment is
// lost, and the sum comes up one short.
func TestCheckSumCatchesLostUpdate(t *testing.T) {
	const initial = 100 // the hot key holds 5, the others 95
	final := int64(95 + 6)
	if err := checkSum(initial, final, 2, 0); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("lost update not reported: %v", err)
	}
	if err := checkSum(initial, 95+7, 2, 0); err != nil {
		t.Fatalf("serial increments reported: %v", err)
	}
	// An errored call may have committed: both sums pass.
	if err := checkSum(initial, 95+6, 1, 1); err != nil {
		t.Fatalf("committed count only: %v", err)
	}
	if err := checkSum(initial, 95+7, 1, 1); err != nil {
		t.Fatalf("errored call that committed: %v", err)
	}
	if err := checkSum(initial, 95+8, 1, 1); err == nil {
		t.Fatal("phantom increment not reported")
	}
}

func ts(n int64) timestamp.Timestamp { return timestamp.Timestamp{Time: n, ClientID: 1} }

// Writer 1 (timestamp 10) and writer 2 (timestamp 20) both wrote key a;
// the store still holds writer 1's value, a write lost under a stale one.
func TestCheckLastWritersCatchesStaleWrite(t *testing.T) {
	keys := []string{"a", "b", "c"}
	committed := []write{
		{writer: 1, ts: ts(10), keys: []string{"a", "b"}},
		{writer: 2, ts: ts(20), keys: []string{"a"}},
	}
	good := [][]byte{writerValue(2), writerValue(1), initialValue}
	if err := checkLastWriters(committed, nil, keys, good); err != nil {
		t.Fatalf("correct state reported: %v", err)
	}
	stale := [][]byte{writerValue(1), writerValue(1), initialValue}
	if err := checkLastWriters(committed, nil, keys, stale); err == nil || !strings.Contains(err.Error(), "key a") {
		t.Fatalf("stale write not reported: %v", err)
	}
	foreign := [][]byte{writerValue(2), writerValue(1), writerValue(9)}
	if err := checkLastWriters(committed, nil, keys, foreign); err == nil || !strings.Contains(err.Error(), "key c") {
		t.Fatalf("write by no committed transaction not reported: %v", err)
	}
	// Writer 9's call errored: it may have committed, so key c passes.
	uncertain := []write{{writer: 9, keys: []string{"c"}}}
	if err := checkLastWriters(committed, uncertain, keys, foreign); err != nil {
		t.Fatalf("uncertain writer's value reported: %v", err)
	}
}
