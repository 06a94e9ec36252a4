package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/occ"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
	"meerkat/internal/workload"
)

// The unit-cost probes call one layer's functions directly, outside any
// deployment, on inputs drawn from the workload generator with the run's
// seed. They run in the traced run only, after the load has stopped, so they
// never share the CPUs with a timed phase.

const (
	probeBatches = 41   // each probe reports the median of this many batches
	probeBatch   = 1000 // calls per batch for nanosecond-scale functions
	probePort    = 23000
)

// perCall times batches of n calls of fn and returns the median nanoseconds
// per call. fn gets the index of the call within the whole probe. undo, when
// not nil, runs untimed after each batch with the batch's index range.
func perCall(n int, fn func(i int), undo func(lo, hi int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		lo := b * n
		start := time.Now()
		for i := lo; i < lo+n; i++ {
			fn(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
		if undo != nil {
			undo(lo, lo+n)
		}
	}
	return medianFloat(per)
}

// postTweets draws n Post Tweet transactions (3 read-modify-writes, 2 blind
// writes) from the Retwis generator: the largest VALIDATE a Retwis run sends.
func postTweets(rng *rand.Rand, n int) []workload.TxnSpec {
	gen := workload.NewRetwis(workload.NewUniform(numKeys))
	var out []workload.TxnSpec
	for len(out) < n {
		if s := gen.Next(rng); s.Kind == "post-tweet" {
			out = append(out, s)
		}
	}
	return out
}

// asTxn is spec as the coordinator ships it: a read set observed on s (or
// fabricated versions when s is nil) and a write set of 64-byte values.
func asTxn(s *vstore.Store, spec *workload.TxnSpec, id uint64) *message.Txn {
	t := &message.Txn{ID: timestamp.TxnID{Seq: id, ClientID: 1}}
	val := writerValue(id)
	for _, k := range spec.RMWs {
		e := message.ReadSetEntry{Key: k, WTS: timestamp.Timestamp{Time: 1}, VHash: message.HashValue(initialValue)}
		if s != nil {
			v, _ := s.Read(k)
			e.WTS, e.VHash = v.WTS, message.HashValue(v.Value)
		}
		t.ReadSet = append(t.ReadSet, e)
		t.WriteSet = append(t.WriteSet, message.WriteSetEntry{Key: k, Value: val})
	}
	for _, k := range spec.Writes {
		t.WriteSet = append(t.WriteSet, message.WriteSetEntry{Key: k, Value: val})
	}
	return t
}

// loadedStore is a versioned store holding every key, as each replica core
// shares it during a run.
func loadedStore() *vstore.Store {
	s := vstore.New(vstore.Config{})
	ts := timestamp.Timestamp{Time: 1}
	for i := 0; i < numKeys; i++ {
		s.Load(workload.KeyName(i), initialValue, ts)
	}
	return s
}

// probe results, keyed by per-layer metric name.
type probeSet map[string]float64

func runProbes(seed int64, dataDir string) (probeSet, error) {
	rng := rand.New(rand.NewSource(seed))
	out := probeSet{}
	probeCodec(rng, out)
	probeStore(rng, out)
	if err := probeTransports(out); err != nil {
		return nil, err
	}
	if err := probeWAL(rng, dataDir, out); err != nil {
		return nil, err
	}
	probeShardMap(rng, out)
	return out, nil
}

// probeCodec encodes and decodes a VALIDATE carrying a generated Post Tweet.
func probeCodec(rng *rand.Rand, out probeSet) {
	spec := postTweets(rng, 1)[0]
	m := &message.Message{Type: message.TypeValidate, Txn: *asTxn(nil, &spec, 1),
		TID: timestamp.TxnID{Seq: 1, ClientID: 1}, TS: timestamp.Timestamp{Time: time.Now().UnixNano(), ClientID: 1}, CoreID: 3}
	enc := message.AcquireEncoder()
	defer enc.Release()
	var buf []byte
	out["message.encode_ns"] = perCall(probeBatch, func(int) { buf = enc.EncodeInto(m) }, nil)
	out["message.validate_bytes"] = float64(len(buf))
	var dm message.Message
	out["message.decode_ns"] = perCall(probeBatch, func(int) {
		if err := message.DecodeInto(&dm, buf); err != nil {
			panic(err) // the buffer was just encoded: a failure is a codec bug
		}
	}, nil)
}

// probeStore times vstore reads, read validation and version installs, then
// OCC validation and write phase, on a store holding every key.
func probeStore(rng *rand.Rand, out probeSet) {
	s := loadedStore()
	chooser := workload.NewUniform(numKeys)
	n := probeBatches * probeBatch
	keys := make([]string, n)
	for i := range keys {
		keys[i] = workload.KeyName(chooser.Next(rng))
	}
	var sink int
	out["vstore.read_ns"] = perCall(probeBatch, func(i int) {
		v, _ := s.Read(keys[i])
		sink += len(v.Value)
	}, nil)
	_ = sink
	base := time.Now().UnixNano()
	ts := func(i int) timestamp.Timestamp { return timestamp.Timestamp{Time: base + int64(i), ClientID: 1} }
	vers := make([]vstore.Version, n)
	hashes := make([]uint64, n)
	for i, k := range keys {
		vers[i], _ = s.Read(k)
		hashes[i] = message.HashValue(vers[i].Value)
	}
	out["vstore.validate_read_ns"] = perCall(probeBatch, func(i int) {
		if !s.ValidateRead(keys[i], vers[i].WTS, hashes[i], ts(i)) {
			panic("vstore probe: a fresh read failed validation")
		}
	}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.RemoveReader(keys[i], ts(i))
		}
	})
	val := writerValue(1)
	out["vstore.commit_write_ns"] = perCall(probeBatch, func(i int) {
		s.CommitWrite(keys[i], val, ts(n+i))
	}, nil)

	// One Validate and one ApplyCommit per generated Post Tweet; each
	// transaction is built against the store as the previous ones left it,
	// so every validation passes, as on a conflict-free fast path.
	const txns = probeBatches * 100
	specs := postTweets(rng, txns)
	var validateNs, applyNs []float64
	next := 2 * n
	for b := 0; b < probeBatches; b++ {
		var v, a time.Duration
		for j := 0; j < 100; j++ {
			spec := &specs[b*100+j]
			t := asTxn(s, spec, uint64(next))
			at := ts(next)
			next++
			start := time.Now()
			st := occ.Validate(s, t, at)
			mid := time.Now()
			if st != message.StatusValidatedOK {
				panic(fmt.Sprintf("occ probe: a conflict-free transaction validated %v", st))
			}
			occ.ApplyCommit(s, t, at)
			v += mid.Sub(start)
			a += time.Since(mid)
		}
		validateNs = append(validateNs, float64(v.Nanoseconds())/100)
		applyNs = append(applyNs, float64(a.Nanoseconds())/100)
	}
	out["occ.validate_ns"] = medianFloat(validateNs)
	out["occ.apply_commit_ns"] = medianFloat(applyNs)
}

// probeTransports ping-pongs one message between two endpoints of a fresh
// network, inproc and loopback UDP, and reports the median round trip.
func probeTransports(out probeSet) error {
	rtt, err := pingPong(transport.NewInproc(transport.InprocConfig{}))
	if err != nil {
		return fmt.Errorf("inproc ping-pong: %w", err)
	}
	out["transport.inproc_rtt_us"] = rtt
	rtt, err = pingPong(transport.NewUDP("127.0.0.1", probePort, 1))
	if err != nil {
		return fmt.Errorf("udp ping-pong: %w", err)
	}
	out["transport.udp_rtt_us"] = rtt
	return nil
}

func pingPong(n transport.Network) (float64, error) {
	defer n.Close()
	srvAddr := message.Addr{Node: 1}
	var srv atomic.Pointer[transport.Endpoint]
	sep, err := n.Listen(srvAddr, func(m *message.Message) {
		if ep := srv.Load(); ep != nil {
			(*ep).Send(m.Src, &message.Message{Type: message.TypePutReply, Seq: m.Seq})
		}
	})
	if err != nil {
		return 0, err
	}
	srv.Store(&sep)
	inbox := transport.NewInbox(16)
	cli, err := n.Listen(message.Addr{Node: 2}, inbox.Handle)
	if err != nil {
		return 0, err
	}
	const trips = 2000
	rtts := make([]int64, 0, trips)
	for i := uint64(0); i < trips+200; i++ {
		start := time.Now()
		if err := cli.Send(srvAddr, &message.Message{Type: message.TypePut, Seq: i}); err != nil {
			return 0, err
		}
		select {
		case reply := <-inbox.C:
			if reply.Seq != i {
				return 0, fmt.Errorf("reply %d to request %d", reply.Seq, i)
			}
		case <-time.After(time.Second):
			return 0, fmt.Errorf("no reply to request %d within 1s", i)
		}
		if i >= 200 { // the first round trips warm the path up
			rtts = append(rtts, int64(time.Since(start)))
		}
	}
	return float64(quantile(sortedCopy(rtts), 0.5)) / 1e3, nil
}

// probeWAL times AppendCommit of generated Post Tweet records, and Flush
// (write plus fsync) of a group-commit batch, on a one-core log under
// SyncBatch. Its scheduler ticks once an hour, so only the probe's own
// Flush calls reach the disk.
func probeWAL(rng *rand.Rand, dataDir string, out probeSet) error {
	dir := dataDir + "/probe-wal"
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sched := wal.NewScheduler(time.Hour)
	defer sched.Stop()
	st, _, err := wal.Open(dir, 1, wal.Options{Sync: wal.SyncBatch, Scheduler: sched, SnapshotInterval: time.Hour})
	if err != nil {
		return fmt.Errorf("opening probe wal: %w", err)
	}
	specs := postTweets(rng, 256)
	txns := make([]*message.Txn, len(specs))
	for i := range specs {
		txns[i] = asTxn(nil, &specs[i], uint64(i))
	}
	base := time.Now().UnixNano()
	l := st.Log(0)
	// A flush batch is the records one 2 ms group commit gathers at the
	// retwis-durable-udp rate: 4,000 txn/s × 2 ms ≈ 8.
	const perFlush = 8
	var appendNs, flushUs []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for j := 0; j < perFlush; j++ {
			i := b*perFlush + j
			l.AppendCommit(txns[i%len(txns)], timestamp.Timestamp{Time: base + int64(i), ClientID: 1})
		}
		appendNs = append(appendNs, float64(time.Since(start).Nanoseconds())/perFlush)
		start = time.Now()
		if err := st.Flush(); err != nil {
			st.Close()
			return fmt.Errorf("flushing probe wal: %w", err)
		}
		flushUs = append(flushUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["wal.append_ns"] = medianFloat(appendNs)
	out["wal.flush_us"] = medianFloat(flushUs)
	return st.Close()
}

// probeShardMap times routing a generated key on the one-shard map a run
// deploys.
func probeShardMap(rng *rand.Rand, out probeSet) {
	m := shardmap.New(1)
	keys := make([]string, probeBatches*probeBatch)
	chooser := workload.NewUniform(numKeys)
	for i := range keys {
		keys[i] = workload.KeyName(chooser.Next(rng))
	}
	var sink int
	out["shardmap.lookup_ns"] = perCall(probeBatch, func(i int) { sink += m.GroupForKey(keys[i]) }, nil)
	_ = sink
}
