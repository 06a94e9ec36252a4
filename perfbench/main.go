// Command perfbench is Meerkat's benchmark: it runs one workload end to end
// through the public API (meerkat.Open, DB.Session, Client.Run), checks the
// outputs, and prints every metric by name with its unit. With -trace 1 it
// records spans around the calls into Meerkat, reads the counters Meerkat
// exposes, runs unit-cost probes of single layers, and prints per-layer
// metrics instead.
//
//	perfbench -workload retwis -seed 1 -seconds 16 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed output check exits
// with status 1 after printing it. -workload all runs every workload; with
// -trace 1 it runs each untraced and traced, prints the tracing overhead and
// the layer-by-layer attribution of retwis against retwis-durable-udp.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"meerkat"
	"meerkat/internal/obs"
	"meerkat/internal/workload"
)

const (
	// setups is how many times a run sets Meerkat up; setup_s is their
	// median, and the last one carries the load.
	setups = 3
	// warmupPerSlot is how many transactions each session slot runs before
	// the measured phases. A fixed count, not a duration, so that every run
	// enters the open-loop phase with the same amount of state.
	warmupPerSlot = 250
	// The open-loop phase takes a quarter of the measured time. The rest is
	// closedSegments closed-loop segments, each started from a collected
	// heap; goodput_tps is the median of their rates, so one segment that
	// caught a long GC cycle or a burst of steal does not move it.
	closedSegments = 3
)

// metricDef is one reported metric, in output order.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"goodput_tps", "1/s"},
	{"success_share", "ratio"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"meerkat.run_mean_us", "us"},
	{"meerkat.read_many_p50_us", "us"},
	{"meerkat.read_many_p99_us", "us"},
	{"meerkat.commit_p50_us", "us"},
	{"meerkat.commit_p99_us", "us"},
	{"meerkat.retry_wait_share", "ratio"},
	{"meerkat.read_many_share", "ratio"},
	{"meerkat.commit_share", "ratio"},
	{"meerkat.attempts_per_commit", "1/txn"},
	{"coordinator.fast_share", "ratio"},
	{"coordinator.slow_share", "ratio"},
	{"coordinator.ro_share", "ratio"},
	{"coordinator.ro_fallbacks_per_ro", "ratio"},
	{"coordinator.txn_retries_per_txn", "1/txn"},
	{"coordinator.read_rounds_per_txn", "1/txn"},
	{"coordinator.timeouts", "count"},
	{"replica.validate_abort_share", "ratio"},
	{"replica.accepts_per_txn", "1/txn"},
	{"replica.snapshot_reads_per_ro", "1/txn"},
	{"occ.validate_ns", "ns"},
	{"occ.apply_commit_ns", "ns"},
	{"vstore.read_ns", "ns"},
	{"vstore.validate_read_ns", "ns"},
	{"vstore.commit_write_ns", "ns"},
	{"transport.msgs_per_txn", "1/txn"},
	{"transport.dropped", "count"},
	{"transport.syscalls_per_txn", "1/txn"},
	{"transport.datagrams_per_syscall", "ratio"},
	{"transport.inproc_rtt_us", "us"},
	{"transport.udp_rtt_us", "us"},
	{"message.encode_ns", "ns"},
	{"message.decode_ns", "ns"},
	{"message.validate_bytes", "B"},
	{"wal.fsyncs_per_txn", "1/txn"},
	{"wal.bytes_per_txn", "B/txn"},
	{"wal.failures", "count"},
	{"wal.append_ns", "ns"},
	{"wal.flush_us", "us"},
	{"shardmap.lookup_ns", "ns"},
	{"runtime.cpu_us_per_txn", "us/txn"},
	{"runtime.allocs_per_txn", "1/txn"},
	{"runtime.alloc_bytes_per_txn", "B/txn"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.samples", "count"},
	{"loadgen.steal_share", "ratio"},
	{"loadgen.traced_goodput_tps", "1/s"},
	{"loadgen.traced_p50_ms", "ms"},
}

// result is one run of one workload.
type result struct {
	w        workloadDef
	traced   bool
	checkErr error

	attempted, failed int64
	closedCommits     int64
	closedElapsed     time.Duration

	latency, late []int64 // sorted open-loop samples, ns
	setupTimes    []float64
	// stealShare is the share of the host's CPUs the hypervisor gave to
	// other guests during the closed-loop phase; rawGoodput is that phase's
	// commits per wall-clock second.
	stealShare float64
	rawGoodput float64

	// metrics holds every end-to-end metric, and in a traced run every
	// per-layer metric.
	metrics map[string]float64
}

func main() {
	name := flag.String("workload", "all", "workload to run: retwis, ycsbt-hot, retwis-durable-udp, or all")
	seed := flag.Int64("seed", 1, "seed for keys, values and the choice of transaction")
	seconds := flag.Float64("seconds", 16, "measured seconds: a quarter open loop, the rest closed loop")
	trace := flag.Int("trace", 0, "1 records spans and counters and reports per-layer metrics")
	data := flag.String("data", ".bench_build/run", "directory for WAL files and span dumps")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	measure := time.Duration(*seconds * float64(time.Second))
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fatalf("%v", err)
	}

	var ws []workloadDef
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workloadDef{w}
	} else {
		fatalf("unknown workload %q", *name)
	}

	out := summary{Correct: true, Metrics: map[string]metricValue{}}
	traced := map[string]*result{}
	for _, w := range ws {
		var runs []*result
		if *trace == 0 || *name == "all" {
			runs = append(runs, runOne(w, *seed, measure, false, *data))
		}
		if *trace == 1 {
			r := runOne(w, *seed, measure, true, *data)
			traced[w.name] = r
			runs = append(runs, r)
		}
		for _, r := range runs {
			printResult(r)
			out.add(r, len(ws) > 1)
		}
		if len(runs) == 2 {
			printOverhead(runs[0], runs[1])
		}
	}
	if a, b := traced["retwis"], traced["retwis-durable-udp"]; a != nil && b != nil {
		printAttribution(a, b)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne sets up, loads, measures and checks one workload. Set-up or load
// errors are fatal: the benchmark then prints no result.
func runOne(w workloadDef, seed int64, measure time.Duration, traced bool, data string) *result {
	r := &result{w: w, traced: traced, metrics: map[string]float64{}}
	in := makeInputs(w, seed)
	dir := filepath.Join(data, w.name)

	var dep *deployment
	for i := 0; i < setups; i++ {
		runtime.GC()
		d, took, err := setUp(w, seed, dir, &in)
		if err != nil {
			fatalf("%s: set-up: %v", w.name, err)
		}
		r.setupTimes = append(r.setupTimes, took.Seconds())
		if i < setups-1 {
			if err := d.close(); err != nil {
				fatalf("%s: closing set-up: %v", w.name, err)
			}
		} else {
			dep = d
		}
	}
	r.metrics["setup_s"] = medianFloat(r.setupTimes)

	workers := make([]*worker, window)
	for i, cl := range dep.sess.Clients() {
		workers[i] = &worker{cl: cl, hot: w.hot}
	}
	// Every Run call gets at most this long; a call that still has no
	// outcome counts as failed.
	ctx, cancel := context.WithTimeout(context.Background(), 2*measure+time.Minute)
	defer cancel()
	var writers atomic.Uint64

	closedLoop(ctx, workers, &in, w, seed, 0, time.Minute, warmupPerSlot, &writers)
	failedBefore := sumFailed(workers)

	// Open-loop inputs are generated before the phase, from the seed alone.
	openFor := measure / 4
	specs := make([]workload.TxnSpec, int(w.rate*openFor.Seconds()))
	gen := in.newGenerator(w)
	rng := newRand(seed, 1, 0)
	for i := range specs {
		specs[i] = gen.Next(rng)
	}
	if traced {
		for _, wk := range workers {
			wk.log = &spanLog{spans: make([]span, 0, 4*len(specs)/window)}
		}
	}
	// Each phase starts from a collected heap, so the garbage collector's
	// schedule within it depends on the phase's own work alone.
	runtime.GC()
	before := takeCounters(dep.db)
	stolen := stealTicks()
	ol := openLoop(ctx, workers, specs, w.rate, &writers)
	r.metrics["loadgen.steal_share"] = stealShare(stolen, ol.elapsed)
	after := takeCounters(dep.db)
	r.latency, r.late = sortedCopy(ol.latency), sortedCopy(ol.late)
	r.metrics["p50_ms"] = float64(quantile(r.latency, 0.50)) / 1e6
	r.metrics["loadgen.late_p50_us"] = float64(quantile(r.late, 0.50)) / 1e3
	r.metrics["loadgen.late_p99_us"] = float64(quantile(r.late, 0.99)) / 1e3
	r.metrics["loadgen.samples"] = float64(len(r.latency))

	var openLogs []*spanLog
	if traced {
		for _, wk := range workers {
			openLogs = append(openLogs, wk.log)
			wk.log = &spanLog{spans: make([]span, 0, cap(wk.log.spans))}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	var closedCalls int64
	var cpu time.Duration
	var stolenSeconds float64
	var rates []float64
	for k := 0; k < closedSegments; k++ {
		runtime.GC()
		cpu0, stolen := cpuTime(), stealTicks()
		cl := closedLoop(ctx, workers, &in, w, seed, int64(2+k), (measure-openFor)/closedSegments, 0, &writers)
		cpu += cpuTime() - cpu0
		steal := stealShare(stolen, cl.elapsed)
		stolenSeconds += steal * cl.elapsed.Seconds()
		// The phase is CPU-bound, so its rate scales with the CPU time the
		// host left this guest; dividing out the stolen share keeps other
		// guests' load out of the figure. The raw rate is printed beside
		// it.
		rates = append(rates, float64(cl.commits)/cl.elapsed.Seconds()/(1-min(steal, 0.9)))
		closedCalls += cl.calls
		r.closedCommits += cl.commits
		r.closedElapsed += cl.elapsed
	}
	r.metrics["goodput_tps"] = medianFloat(rates)
	r.rawGoodput = float64(r.closedCommits) / r.closedElapsed.Seconds()
	r.stealShare = stolenSeconds / r.closedElapsed.Seconds()
	r.metrics["runtime.cpu_us_per_txn"] = float64(cpu.Microseconds()) / float64(r.closedCommits)
	r.attempted = ol.calls + closedCalls
	r.failed = sumFailed(workers) - failedBefore
	r.metrics["success_share"] = 1 - float64(r.failed)/float64(r.attempted)

	r.checkErr = checkOutputs(ctx, dep, w, &in, workers)
	if err := dep.close(); err != nil {
		fatalf("%s: closing: %v", w.name, err)
	}

	if traced {
		r.metrics["loadgen.traced_goodput_tps"] = r.metrics["goodput_tps"]
		r.metrics["loadgen.traced_p50_ms"] = r.metrics["p50_ms"]
		addSpanMetrics(r.metrics, openLogs)
		addCounterMetrics(r.metrics, before, after, ol.calls)
		probes, err := runProbes(seed, data)
		if err != nil {
			fatalf("%s: probes: %v", w.name, err)
		}
		for k, v := range probes {
			r.metrics[k] = v
		}
		if err := writeSpans(filepath.Join(data, w.name+"-spans.csv"), openLogs); err != nil {
			fatalf("%s: writing spans: %v", w.name, err)
		}
	}
	return r
}

func sumFailed(workers []*worker) int64 {
	var n int64
	for _, wk := range workers {
		n += wk.failed
	}
	return n
}

// addSpanMetrics derives the meerkat.* metrics from the open-loop spans.
func addSpanMetrics(m map[string]float64, logs []*spanLog) {
	var total, readMany, commit, retry int64
	var reads, commits []int64
	bodies := 0
	for _, l := range logs {
		for _, s := range splitRuns(l.spans) {
			total += s.total
			readMany += s.readMany
			commit += s.commit
			retry += s.retryWait
			reads = append(reads, s.readManyCalls...)
			commits = append(commits, s.commit)
			bodies += s.bodies
		}
	}
	reads, commits = sortedCopy(reads), sortedCopy(commits)
	m["meerkat.run_mean_us"] = ratio(float64(total), float64(len(commits))) / 1e3
	m["meerkat.read_many_p50_us"] = float64(quantile(reads, 0.50)) / 1e3
	m["meerkat.read_many_p99_us"] = float64(quantile(reads, 0.99)) / 1e3
	m["meerkat.commit_p50_us"] = float64(quantile(commits, 0.50)) / 1e3
	m["meerkat.commit_p99_us"] = float64(quantile(commits, 0.99)) / 1e3
	m["meerkat.read_many_share"] = ratio(float64(readMany), float64(total))
	m["meerkat.commit_share"] = ratio(float64(commit), float64(total))
	m["meerkat.retry_wait_share"] = ratio(float64(retry), float64(total))
	m["meerkat.attempts_per_commit"] = ratio(float64(bodies), float64(len(commits)))
}

// counters is everything Meerkat and the Go runtime count, at one instant.
type counters struct {
	obs           obs.Snapshot
	sent, dropped uint64
	udp           meerkat.UDPNetStats
	walSyncs      uint64
	walBytes      uint64
	walFailures   uint64
	runtime       []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeCounters(db *meerkat.DB) counters {
	a := db.Admin()
	c := counters{obs: a.Obs().Snapshot()}
	c.sent, _, c.dropped = a.NetworkStats()
	c.udp, _ = a.UDPStats()
	if s, ok := a.WALStats(); ok {
		c.walSyncs, c.walBytes, c.walFailures = s.Syncs, s.BytesWritten, s.Failures
	}
	c.runtime = make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		c.runtime[i].Name = n
	}
	metrics.Read(c.runtime)
	return c
}

func (c counters) rt(i int) float64 {
	v := c.runtime[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// addCounterMetrics derives the counter-based per-layer metrics from the
// difference over the open-loop phase, whose transaction count is fixed.
func addCounterMetrics(m map[string]float64, b, a counters, txns int64) {
	d := a.obs.Sub(b.obs)
	n := float64(txns)
	get := func(c obs.Counter) float64 { return float64(d.Counter(c)) }
	fast, slow, ro := get(obs.TxnCommitFast), get(obs.TxnCommitSlow), get(obs.TxnCommitRO)
	commits := fast + slow + ro
	m["coordinator.fast_share"] = ratio(fast, commits)
	m["coordinator.slow_share"] = ratio(slow, commits)
	m["coordinator.ro_share"] = ratio(ro, commits)
	m["coordinator.ro_fallbacks_per_ro"] = ratio(get(obs.ROFallback), ro+get(obs.ROFallback))
	m["coordinator.txn_retries_per_txn"] = get(obs.TxnRetry) / n
	m["coordinator.read_rounds_per_txn"] = get(obs.ReadMultiRound) / n
	m["coordinator.timeouts"] = get(obs.TxnAbortTimeout)
	m["replica.validate_abort_share"] = ratio(get(obs.ValidateAbort), get(obs.ValidateAbort)+get(obs.ValidateOK))
	m["replica.accepts_per_txn"] = get(obs.AcceptAcked) / n
	m["replica.snapshot_reads_per_ro"] = ratio(get(obs.SnapshotRead), ro)

	udpSent := float64(a.udp.Sent - b.udp.Sent)
	syscalls := float64(a.udp.Syscalls() - b.udp.Syscalls())
	m["transport.msgs_per_txn"] = (float64(a.sent-b.sent) + udpSent) / n
	m["transport.dropped"] = float64(a.dropped-b.dropped) + float64(a.udp.Dropped-b.udp.Dropped)
	m["transport.syscalls_per_txn"] = syscalls / n
	m["transport.datagrams_per_syscall"] = ratio(udpSent+float64(a.udp.Delivered-b.udp.Delivered), syscalls)
	m["wal.fsyncs_per_txn"] = float64(a.walSyncs-b.walSyncs) / n
	m["wal.bytes_per_txn"] = float64(a.walBytes-b.walBytes) / n
	m["wal.failures"] = float64(a.walFailures - b.walFailures)

	m["runtime.allocs_per_txn"] = (a.rt(0) - b.rt(0)) / n
	m["runtime.alloc_bytes_per_txn"] = (a.rt(1) - b.rt(1)) / n
	m["runtime.gc_cycles"] = a.rt(2) - b.rt(2)
	m["runtime.gc_cpu_share"] = ratio(a.rt(3)-b.rt(3), a.rt(4)-b.rt(4))
}

// metricValue and summary are the JSON the last output line carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// add folds r into the summary: its metrics set by the run's mode, prefixed
// with the workload name when several workloads share one summary.
func (s *summary) add(r *result, prefixed bool) {
	s.Correct = s.Correct && r.checkErr == nil
	s.Attempted += r.attempted
	s.Failed += r.failed
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		name := d.name
		if prefixed {
			name = r.w.name + "." + name
			if r.traced {
				name = r.w.name + ".traced." + d.name
			}
		}
		s.Metrics[name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
}

func printResult(r *result) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s): rate %.0f txn/s open loop, window %d, %d keys, %s\n", r.w.name, mode, r.w.rate, window, numKeys, flushPolicy(r.w))
	n := len(r.latency)
	fmt.Printf("  goodput_tps     %12.1f 1/s   closed loop, median of %d segments; %d commits in %.2f s (%.1f/s) with %.1f%% of the host's CPU stolen\n", r.metrics["goodput_tps"], closedSegments, r.closedCommits, r.closedElapsed.Seconds(), r.rawGoodput, 100*r.stealShare)
	fmt.Printf("  p50_ms          %12.4f ms    open loop, %d samples, %.1f%% of the host's CPU stolen (not gated)\n", r.metrics["p50_ms"], n, 100*r.metrics["loadgen.steal_share"])
	fmt.Printf("  p99_ms          %12.4f ms    %d beyond (not gated)\n", float64(quantile(r.latency, 0.99))/1e6, beyond(n, 0.99))
	fmt.Printf("  p999_ms         %12.4f ms    %d beyond (not gated)\n", float64(quantile(r.latency, 0.999))/1e6, beyond(n, 0.999))
	fmt.Printf("  failed_share    %12.6f       %d of %d Run calls returned an error\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	fmt.Printf("  setup_s         %12.4f s     median of %v\n", r.metrics["setup_s"], r.setupTimes)
	fmt.Printf("  heap_mb         %12.1f MiB   live heap after the open-loop phase\n", r.metrics["heap_mb"])
	fmt.Printf("  cpu_us_per_txn  %12.2f us    process CPU per commit, closed loop (not gated)\n", r.metrics["runtime.cpu_us_per_txn"])
	fmt.Printf("  loadgen.late_p50_us %8.2f us    loadgen.late_p99_us %.2f us\n", r.metrics["loadgen.late_p50_us"], r.metrics["loadgen.late_p99_us"])
	if r.traced {
		for _, d := range perLayer {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
		}
	}
	if r.checkErr != nil {
		fmt.Printf("  CHECK FAILED: %v\n", r.checkErr)
	} else {
		fmt.Printf("  check: ok (%s)\n", checkName(r.w))
	}
}

func flushPolicy(w workloadDef) string {
	if w.durable {
		return "WAL SyncBatch 2 ms group commit, snapshots off, UDP loopback"
	}
	return "in memory, inproc transport"
}

func checkName(w workloadDef) string {
	if w.hot {
		return "sum over all keys = initial sum + committed read-modify-writes"
	}
	return "every key holds its highest-timestamp committed writer's value"
}

// printOverhead compares an untraced and a traced run of one workload.
func printOverhead(u, t *result) {
	g := ratio(t.metrics["goodput_tps"]-u.metrics["goodput_tps"], u.metrics["goodput_tps"])
	p := ratio(t.metrics["p50_ms"]-u.metrics["p50_ms"], u.metrics["p50_ms"])
	fmt.Printf("  tracing overhead on %s: goodput_tps %+.1f%%, p50_ms %+.1f%%\n", u.w.name, 100*g, 100*p)
}

// printAttribution sets the traced retwis run beside the traced
// retwis-durable-udp run, layer by layer: what the WAL and the UDP wire add.
func printAttribution(mem, dur *result) {
	fmt.Printf("== attribution: %s vs %s (traced)\n", mem.w.name, dur.w.name)
	fmt.Printf("  %-34s %14s %14s %10s\n", "metric", mem.w.name, dur.w.name, "ratio")
	for _, d := range perLayer {
		a, b := mem.metrics[d.name], dur.metrics[d.name]
		fmt.Printf("  %-34s %14.4f %14.4f %10s  %s\n", d.name, a, b, fmtRatio(a, b), d.unit)
	}
	// Mean time per Run call split along the spans: the gap in
	// meerkat.run_mean_us is the sum of what each span adds.
	for _, k := range []string{"meerkat.read_many_share", "meerkat.commit_share", "meerkat.retry_wait_share"} {
		a := mem.metrics[k] * mem.metrics["meerkat.run_mean_us"]
		b := dur.metrics[k] * dur.metrics["meerkat.run_mean_us"]
		fmt.Printf("  %-34s %14.1f %14.1f %10s  us per Run call (share × run mean)\n", k, a, b, fmtRatio(a, b))
	}
}

func fmtRatio(a, b float64) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", b/a)
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealShare is the share of the host's CPUs stolen since the steal counter
// read from, over d.
func stealShare(from float64, d time.Duration) float64 {
	return (stealTicks() - from) / clockTicks / float64(runtime.NumCPU()) / d.Seconds()
}

// stealTicks is the host's CPU steal counter from /proc/stat: time the
// hypervisor ran other guests while this one had work. It reads 0 where
// there is no such file.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}
