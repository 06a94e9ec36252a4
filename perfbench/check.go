package main

import (
	"context"
	"fmt"
	"strconv"

	"meerkat"
	"meerkat/internal/timestamp"
)

// valueSize is the paper's value size; every value the benchmark writes has
// exactly this length.
const valueSize = 64

// counterValue is n as decimal, left-padded with zeros to valueSize bytes:
// the value a ycsbt-hot read-modify-write stores.
func counterValue(n int64) []byte {
	s := strconv.FormatInt(n, 10)
	v := make([]byte, valueSize)
	for i := range v {
		v[i] = '0'
	}
	copy(v[valueSize-len(s):], s)
	return v
}

func parseCounter(v []byte) (int64, error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("counter value has %d bytes, want %d", len(v), valueSize)
	}
	return strconv.ParseInt(string(v), 10, 64)
}

// checkSum is the ycsbt-hot invariant: each committed read-modify-write adds
// exactly one to the sum over all keys, so the final sum is the initial sum
// plus the committed count. A Run call that returned an error may or may not
// have committed, so each widens the upper end by one.
func checkSum(initial, final, committed, errored int64) error {
	lo, hi := initial+committed, initial+committed+errored
	if final < lo || final > hi {
		return fmt.Errorf("sum over all keys is %d, want %d..%d (initial %d + %d committed, %d errored): lost or phantom update",
			final, lo, hi, initial, committed, errored)
	}
	return nil
}

// initialValue is what every key holds before a Retwis run writes it.
var initialValue = func() []byte {
	v := make([]byte, valueSize)
	copy(v, "initial")
	for i := len("initial"); i < valueSize; i++ {
		v[i] = '.'
	}
	return v
}()

// writerValue is the valueSize-byte value a Retwis transaction writes to
// every key it writes: it names the Run call that wrote it.
func writerValue(writer uint64) []byte {
	v := make([]byte, valueSize)
	copy(v, fmt.Sprintf("w%016x", writer))
	for i := 17; i < valueSize; i++ {
		v[i] = '.'
	}
	return v
}

// writerOf reads the writer a value names; ok is false for the initial value
// and for anything that is neither.
func writerOf(v []byte) (writer uint64, ok bool) {
	if len(v) != valueSize || v[0] != 'w' {
		return 0, false
	}
	w, err := strconv.ParseUint(string(v[1:17]), 16, 64)
	return w, err == nil
}

// write is one Run call's writes: the keys it wrote and, when it committed,
// its serialization timestamp.
type write struct {
	writer uint64
	ts     timestamp.Timestamp
	keys   []string
}

// checkLastWriters is the Retwis invariant: after the run every key holds
// the value of its committed writer with the highest timestamp, and a key no
// transaction committed a write to still holds the initial value. A Run call
// that returned an error (uncertain) may have committed, so a key holding
// its value passes.
func checkLastWriters(committed, uncertain []write, keys []string, actual [][]byte) error {
	type last struct {
		writer uint64
		ts     timestamp.Timestamp
	}
	want := make(map[string]last)
	for _, w := range committed {
		for _, k := range w.keys {
			if cur, ok := want[k]; !ok || cur.ts.Less(w.ts) {
				want[k] = last{w.writer, w.ts}
			}
		}
	}
	maybe := make(map[string]map[uint64]bool)
	for _, w := range uncertain {
		for _, k := range w.keys {
			if maybe[k] == nil {
				maybe[k] = make(map[uint64]bool)
			}
			maybe[k][w.writer] = true
		}
	}
	bad := 0
	var first error
	for i, k := range keys {
		got, named := writerOf(actual[i])
		if named && maybe[k][got] {
			continue
		}
		w, written := want[k]
		switch {
		case written && (!named || got != w.writer):
			bad++
			if first == nil {
				first = fmt.Errorf("key %s holds %q, want the value of writer %d (timestamp %v)", k, preview(actual[i]), w.writer, w.ts)
			}
		case !written && string(actual[i]) != string(initialValue):
			bad++
			if first == nil {
				first = fmt.Errorf("key %s holds %q but no committed transaction wrote it", k, preview(actual[i]))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d keys hold a stale or foreign value; first: %w", bad, len(keys), first)
	}
	return nil
}

// readAll reads keys with read-only transactions of up to batch keys each.
// It runs after the load has stopped, so each batch sees every commit.
func readAll(ctx context.Context, cl *meerkat.Client, keys []string) ([][]byte, error) {
	const batch = 512
	out := make([][]byte, 0, len(keys))
	for lo := 0; lo < len(keys); lo += batch {
		part := keys[lo:min(lo+batch, len(keys))]
		var vals [][]byte
		err := cl.Run(ctx, func(t *meerkat.Txn) error {
			t.ReadOnly()
			v, err := t.ReadMany(part)
			vals = v
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("reading back keys %d..%d: %w", lo, lo+len(part)-1, err)
		}
		for _, v := range vals {
			out = append(out, append([]byte(nil), v...))
		}
	}
	return out, nil
}
