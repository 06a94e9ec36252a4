package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"meerkat"
	"meerkat/internal/workload"
)

// Load shape shared by every workload: one process, 3 replicas × 4 cores, one
// shard, 65,536 preloaded 64-byte values, and one DB.Session with 16
// transactions in flight.
const (
	numKeys     = 65536
	window      = 16
	replicas    = 3
	cores       = 4
	zipfTheta   = 0.99
	clusterPort = 21000 // UDP base port of the deployment; probes use probePort
)

// workloadDef is one traffic mix. Its inputs come only from internal/workload
// generators seeded by --seed.
type workloadDef struct {
	name string
	// rate is the open-loop arrival rate in transactions per second, about
	// 35–40% of the closed-loop capacity measured on a 2-CPU host.
	rate float64
	// hot selects YCSB-T over scrambled Zipf(0.99) keys whose values are
	// counters; otherwise the Retwis mix over uniform keys.
	hot bool
	// udp runs the deployment over loopback TransportUDP; durable adds the
	// WAL under SyncBatch (2 ms group commit, snapshots off).
	udp, durable bool
}

var workloads = []workloadDef{
	{name: "retwis", rate: 2000},
	{name: "ycsbt-hot", rate: 3000, hot: true},
	{name: "retwis-durable-udp", rate: 800, udp: true, durable: true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// inputs is everything a run derives from its seed before set-up: key names,
// initial values, and the generators' shared key chooser.
type inputs struct {
	keys    []string
	initial [][]byte
	// initialSum is the sum of the initial counters (ycsbt-hot only).
	initialSum int64
	chooser    workload.KeyChooser
}

func makeInputs(w workloadDef, seed int64) inputs {
	in := inputs{keys: make([]string, numKeys), initial: make([][]byte, numKeys)}
	rng := rand.New(rand.NewSource(seed))
	for i := range in.keys {
		in.keys[i] = workload.KeyName(i)
		if w.hot {
			n := int64(rng.Intn(1000))
			in.initialSum += n
			in.initial[i] = counterValue(n)
		} else {
			in.initial[i] = initialValue
		}
	}
	if w.hot {
		in.chooser = workload.NewChooser(numKeys, zipfTheta)
	} else {
		in.chooser = workload.NewUniform(numKeys)
	}
	return in
}

func (in *inputs) newGenerator(w workloadDef) workload.Generator {
	if w.hot {
		return workload.NewYCSBT(in.chooser)
	}
	return workload.NewRetwis(in.chooser)
}

// deployment is one running Meerkat with the session that loads it.
type deployment struct {
	db   *meerkat.DB
	sess *meerkat.Session
	dir  string
}

// setUp opens Meerkat, preloads every key and opens the load session: the
// work setup_s times.
func setUp(w workloadDef, seed int64, dir string, in *inputs) (*deployment, time.Duration, error) {
	cfg := meerkat.Config{Replicas: replicas, Cores: cores, Shards: 1, Seed: seed}
	if w.udp {
		cfg.Transport = meerkat.TransportUDP
		cfg.UDPBasePort = clusterPort
	}
	if w.durable {
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		cfg.Durability = meerkat.Durability{DataDir: dir, Sync: meerkat.SyncBatch, SnapshotInterval: -1}
	}
	start := time.Now()
	db, err := meerkat.Open(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("opening meerkat: %w", err)
	}
	for i, k := range in.keys {
		db.Load(k, in.initial[i])
	}
	sess, err := db.Session(meerkat.WithPipeline(window))
	if err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("opening session: %w", err)
	}
	return &deployment{db: db, sess: sess, dir: dir}, time.Since(start), nil
}

func (d *deployment) close() error {
	d.sess.Close()
	d.db.Close()
	if d.dir != "" {
		return os.RemoveAll(d.dir)
	}
	return nil
}

// worker drives one session slot. It keeps what the output checks need and,
// in a traced run, the spans of its transactions.
type worker struct {
	cl   *meerkat.Client
	hot  bool
	base time.Time
	log  *spanLog // nil in an untraced run
	gets []string

	// committedWrites and uncertainWrites feed the Retwis check; rmws counts
	// committed ycsbt-hot increments.
	committedWrites []write
	uncertainWrites []write
	rmws            int64
	failed          int64
	// badValue is set when a read returned a value the workload never
	// writes; it fails the run's check.
	badValue bool
}

func (wk *worker) now() int64 { return int64(time.Since(wk.base)) }

// do runs one generated transaction through Client.Run, retries included,
// and reports whether it committed. writer names the call in the values it
// writes.
func (wk *worker) do(ctx context.Context, txn int32, spec *workload.TxnSpec, writer uint64) bool {
	readOnly := len(spec.RMWs)+len(spec.Writes) == 0
	var val []byte
	if !wk.hot && !readOnly {
		val = writerValue(writer)
	}
	log := wk.log
	root := int32(-1)
	if log != nil {
		root = log.open(txn, -1, spanRun, wk.now())
	}
	var last *meerkat.Txn
	err := wk.cl.Run(ctx, func(t *meerkat.Txn) error {
		body := int32(-1)
		if log != nil {
			body = log.open(txn, root, spanBody, wk.now())
		}
		last = t
		if readOnly {
			t.ReadOnly()
		}
		wk.gets = spec.AppendGets(wk.gets[:0])
		rm := int32(-1)
		if log != nil {
			rm = log.open(txn, body, spanReadMany, wk.now())
		}
		vals, err := t.ReadMany(wk.gets)
		if log != nil {
			log.close(rm, wk.now())
		}
		if err == nil {
			err = wk.buildWrites(t, spec, vals, val)
		}
		if log != nil {
			log.close(body, wk.now())
		}
		return err
	})
	if log != nil {
		log.close(root, wk.now())
	}
	if err != nil {
		wk.failed++
		if !wk.hot && !readOnly {
			wk.uncertainWrites = append(wk.uncertainWrites, write{writer: writer, keys: writtenKeys(spec)})
		}
		return false
	}
	switch {
	case wk.hot:
		wk.rmws++
	case !readOnly:
		wk.committedWrites = append(wk.committedWrites, write{writer: writer, ts: last.Timestamp(), keys: writtenKeys(spec)})
	}
	return true
}

// buildWrites buffers the transaction's writes once its reads returned.
func (wk *worker) buildWrites(t *meerkat.Txn, spec *workload.TxnSpec, vals [][]byte, val []byte) error {
	if wk.hot {
		for i, k := range spec.RMWs {
			n, err := parseCounter(vals[len(spec.Reads)+i])
			if err != nil {
				wk.badValue = true
				return fmt.Errorf("key %s: %w", k, err)
			}
			t.Write(k, counterValue(n+1))
		}
		return nil
	}
	for _, v := range vals {
		if _, named := writerOf(v); !named && string(v) != string(initialValue) {
			wk.badValue = true
			return fmt.Errorf("read a value no transaction wrote: %q", preview(v))
		}
	}
	for _, k := range spec.RMWs {
		t.Write(k, val)
	}
	for _, k := range spec.Writes {
		t.Write(k, val)
	}
	return nil
}

// writtenKeys is every key a Retwis spec writes.
func writtenKeys(spec *workload.TxnSpec) []string {
	if len(spec.Writes) == 0 {
		return spec.RMWs
	}
	return append(append(make([]string, 0, len(spec.RMWs)+len(spec.Writes)), spec.RMWs...), spec.Writes...)
}

// openLoopResult is the open-loop phase: one sample per transaction, in
// nanoseconds.
type openLoopResult struct {
	latency []int64 // due time to Run's return, retries included
	late    []int64 // due time to hand-off to a worker
	calls   int64
	elapsed time.Duration
}

// The pacer sleeps in nanosleep until spinMargin before each due time, then
// spins without yielding and hands the transaction to a worker. Go's own
// timers wake on epoll's millisecond granularity: a Sleep-per-transaction
// pacer runs a millisecond late at the median on a 2-CPU host, more than a
// whole Retwis commit. A spin that yields (runtime.Gosched) round-trips
// through the scheduler's global run queue, whose lock it then contends
// with every goroutine switch, and on a busy host it starves Go's network
// poller, which runs only on an otherwise idle processor. nanosleep frees
// the processor while it waits; the spin covers its late wake-up and holds
// a processor for at most spinMargin per transaction.
const spinMargin = 50 * time.Microsecond

// waitUntil returns once at least due has passed since base.
func waitUntil(base time.Time, due int64) int64 {
	if left := due - int64(time.Since(base)); left > int64(spinMargin) {
		sleepFor(time.Duration(left) - spinMargin)
	}
	for {
		if now := int64(time.Since(base)); now >= due {
			return now
		}
	}
}

// openLoop issues specs at rate on a fixed schedule: transaction i is due
// i/rate seconds after the start, whether or not earlier ones have returned.
// Each is timed from its due time, so a stall charges every transaction that
// queued behind it.
func openLoop(ctx context.Context, workers []*worker, specs []workload.TxnSpec, rate float64, writers *atomic.Uint64) openLoopResult {
	n := len(specs)
	due := func(i int) int64 { return int64(float64(i) * 1e9 / rate) }
	sent := make([]int64, n)
	done := make([]int64, n)
	// The queue holds the whole phase, so the pacer never blocks on a
	// backlog: a slow system shows as latency, not as a slower schedule.
	jobs := make(chan int32, n)
	firstWriter := writers.Add(uint64(n)) - uint64(n)
	base := time.Now()
	var wg sync.WaitGroup
	for _, wk := range workers {
		wk.base = base
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for i := range jobs {
				wk.do(ctx, i, &specs[i], firstWriter+uint64(i))
				done[i] = wk.now()
			}
		}(wk)
	}
	go func() {
		// The pacer gets a thread of its own, which exits with it: its
		// timer slack stays changed.
		lockPacerThread()
		for i := 0; i < n; i++ {
			sent[i] = waitUntil(base, due(i))
			jobs <- int32(i)
		}
		close(jobs)
	}()
	wg.Wait()
	res := openLoopResult{calls: int64(n), elapsed: time.Since(base)}
	res.latency = make([]int64, n)
	res.late = make([]int64, n)
	for i := 0; i < n; i++ {
		res.latency[i] = done[i] - due(i)
		res.late[i] = sent[i] - due(i)
	}
	return res
}

// closedLoopResult is a closed-loop phase: every slot runs transactions back
// to back for the phase's duration.
type closedLoopResult struct {
	calls   int64
	commits int64 // committed before the phase ended
	elapsed time.Duration
}

// newRand seeds one generator stream: phase stream of a run's seed, for one
// session slot.
func newRand(seed, stream int64, slot int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*1009 + int64(slot)))
}

// closedLoop runs every worker flat out for d, or until each has issued
// perSlot transactions when perSlot is positive. Each worker generates its
// own transactions from a generator seeded by the run's seed, stream and
// slot.
func closedLoop(ctx context.Context, workers []*worker, in *inputs, w workloadDef, seed, stream int64, d time.Duration, perSlot int64, writers *atomic.Uint64) closedLoopResult {
	var calls, commits atomic.Int64
	base := time.Now()
	end := int64(d)
	var wg sync.WaitGroup
	for slot, wk := range workers {
		wk.base = base
		wg.Add(1)
		go func(slot int, wk *worker) {
			defer wg.Done()
			rng := newRand(seed, stream, slot)
			gen := in.newGenerator(w)
			var c, ok int64
			for txn := int32(0); wk.now() < end && (perSlot <= 0 || c < perSlot); txn++ {
				spec := gen.Next(rng)
				committed := wk.do(ctx, txn, &spec, writers.Add(1))
				c++
				if committed && wk.now() <= end {
					ok++
				}
			}
			calls.Add(c)
			commits.Add(ok)
		}(slot, wk)
	}
	wg.Wait()
	return closedLoopResult{calls: calls.Load(), commits: commits.Load(), elapsed: d}
}

// checkOutputs reads every key back through a fresh client and checks the
// workload's invariant against what the workers recorded.
func checkOutputs(ctx context.Context, dep *deployment, w workloadDef, in *inputs, workers []*worker) error {
	for _, wk := range workers {
		if wk.badValue {
			return fmt.Errorf("a transaction read a value the workload never writes")
		}
	}
	cl, err := dep.db.Client()
	if err != nil {
		return err
	}
	defer cl.Close()
	vals, err := readAll(ctx, cl, in.keys)
	if err != nil {
		return err
	}
	if w.hot {
		var final, rmws, failed int64
		for i, v := range vals {
			n, err := parseCounter(v)
			if err != nil {
				return fmt.Errorf("key %s: %w", in.keys[i], err)
			}
			final += n
		}
		for _, wk := range workers {
			rmws += wk.rmws
			failed += wk.failed
		}
		return checkSum(in.initialSum, final, rmws, failed)
	}
	var committed, uncertain []write
	for _, wk := range workers {
		committed = append(committed, wk.committedWrites...)
		uncertain = append(uncertain, wk.uncertainWrites...)
	}
	return checkLastWriters(committed, uncertain, in.keys, vals)
}

// preview is the printable head of a value, for error messages.
func preview(v []byte) string {
	if len(v) > 17 {
		v = v[:17]
	}
	return string(v)
}
