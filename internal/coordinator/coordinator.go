// Package coordinator implements the Meerkat transaction coordinator
// (§5.1–§5.2): the execution phase (reads from any replica, buffered
// writes), the combined validation/replication phase with its supermajority
// fast path and Paxos-like slow path, and the write-phase commit broadcast.
//
// It also implements the consensus-based coordinator recovery procedure of
// §5.3.2, used both by backup coordinators on replicas (via the sweeper) and
// by an original coordinator whose slow-path proposal was superseded.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// Errors returned by the commit protocol.
var (
	// ErrTimeout means the coordinator could not assemble the quorums it
	// needed within its retry budget; the transaction's outcome is
	// unknown (a backup coordinator will eventually finish it).
	ErrTimeout = errors.New("coordinator: timed out, outcome unknown")
	// ErrWrongShard means a replica refused a request because, under its
	// current shard map, it no longer owns some of the keys — the client
	// routed with a stale map. The coordinator's map cache has already been
	// refreshed by the time callers see this error. Unlike ErrTimeout, a
	// commit that returns ErrWrongShard is a known abort: the partition
	// either refused before creating any record or was driven to an
	// authoritative outcome through coordinator recovery.
	ErrWrongShard = errors.New("coordinator: wrong shard, routing map is stale")
)

// Config parameterizes a coordinator.
type Config struct {
	Topo     topo.Topology
	ClientID uint64
	Net      transport.Network
	Clock    clock.Clock

	// Timeout bounds each wait for a quorum of replies before the request
	// is resent. Defaults to 100ms.
	Timeout time.Duration
	// Retries is how many times each request is resent before giving up.
	// Defaults to 10.
	Retries int
	// BackoffBase and BackoffMax bound the capped exponential backoff
	// inserted before each resend: attempt k sleeps a uniformly jittered
	// duration in (0, min(BackoffBase<<k, BackoffMax)]. Under injected
	// faults (drops, partitions, a crashed replica) the backoff keeps a
	// fleet of retrying clients from hammering the surviving replicas in
	// lockstep. Defaults: 500µs base, 50ms cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DisableFastPath forces every transaction through the slow path, an
	// ablation knob quantifying the fast path's round-trip saving.
	DisableFastPath bool
	// DisableReadOnlyFastPath forces read-only transactions through the
	// classic validated two-round commit, the ablation knob behind the
	// one-round-vs-two-round read experiment.
	DisableReadOnlyFastPath bool
	// ShardMap, when non-nil, routes each key to the replica group owning
	// its hash range under the cached cluster shard map, instead of the
	// topology's static key-hash modulo. On a wrong-shard redirect the
	// coordinator refreshes the cache; Run re-routes and retries. Nil keeps
	// the legacy static routing.
	ShardMap *shardmap.Cache
	// Seed seeds core/replica load-balancing choices. Zero means seed
	// from ClientID.
	Seed int64
	// Obs, when non-nil, receives the coordinator's transaction lifecycle
	// events (fast/slow-path commits, aborts by reason, retries) and commit
	// latency. The coordinator is single-goroutine, so one private shard
	// per coordinator keeps recording coordination-free.
	Obs *obs.Shard
}

func (c *Config) fill() {
	if c.Timeout == 0 {
		c.Timeout = 100 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 10
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 500 * time.Microsecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = 50 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ClientID + 1)
	}
}

// rtimer is a reusable retry timer: one time.Timer per wait site for the
// coordinator's lifetime instead of one per attempt. arm stops and drains any
// leftover state from the previous wait, so callers simply arm before each
// wait; a fired-but-unread expiry from an earlier wait is swallowed here
// rather than misread as a fresh timeout.
type rtimer struct{ t *time.Timer }

func (rt *rtimer) arm(d time.Duration) <-chan time.Time {
	if rt.t == nil {
		rt.t = time.NewTimer(d)
		return rt.t.C
	}
	if !rt.t.Stop() {
		select {
		case <-rt.t.C:
		default:
		}
	}
	rt.t.Reset(d)
	return rt.t.C
}

// phaseTimers bundles the two waits of one partition's validate phase (the
// full-quorum deadline and the straggler grace window) plus the phase's
// broadcast scratch. The zero value is ready: each concurrent per-partition
// goroutine owns its own, while single-partition commits reuse the
// coordinator's across transactions.
type phaseTimers struct {
	deadline rtimer
	grace    rtimer
	outs     []transport.Outgoing // broadcast headers, reused across attempts
}

// broadcast hands req to every destination in group through ep as a single
// batch — one syscall on the real wire instead of one per replica. All
// destinations share one freshly allocated copy (the transport owns a
// message once handed over; receivers treat inbound messages as read-only),
// while the Outgoing headers live in the caller's scratch, which is returned
// for reuse.
func broadcast(ep transport.Endpoint, group []message.Addr, req *message.Message, scratch []transport.Outgoing) []transport.Outgoing {
	m := new(message.Message)
	*m = *req
	return sendTo(ep, group, m, scratch)
}

// release returns a reply the coordinator has finished reading to the
// message pool: the coordinator owns every message it takes from an inbox.
// Read values escape to the caller uncopied, so the reply disowns its byte
// slices first (see message.Message.Disown).
func release(m *message.Message) {
	m.Disown()
	message.ReleaseMessage(m)
}

// sendTo hands the already-copied m to every destination in dsts as one
// batch, reusing scratch for the Outgoing headers.
func sendTo(ep transport.Endpoint, dsts []message.Addr, m *message.Message, scratch []transport.Outgoing) []transport.Outgoing {
	outs := scratch[:0]
	for _, dst := range dsts {
		outs = append(outs, transport.Outgoing{Dst: dst, M: m})
	}
	ep.SendBatch(outs)
	return outs
}

// backoffDelay computes the capped exponential backoff before retry k
// (0-based): a uniformly jittered duration in (0, min(base<<k, max)]. Full
// jitter rather than base-plus-jitter, so colliding clients decorrelate as
// fast as possible. The draw comes from the caller's private stream — the
// concurrent per-partition phases of one commit must not contend (or race)
// on the coordinator's shared rng.
func backoffDelay(base, max time.Duration, k int, rng *transport.SplitMix64) time.Duration {
	d := max
	if k < 63 {
		if s := base << uint(k); s > 0 && s < max {
			d = s
		}
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(rng.Uint64()%uint64(d)) + 1
}

// sleep parks the goroutine for d, or less if ctx expires first. Callers
// re-check the context via waitBudget right after, so no error is returned.
func sleep(ctx context.Context, d time.Duration, rt *rtimer) {
	if d <= 0 {
		return
	}
	select {
	case <-rt.arm(d):
	case <-ctx.Done():
	}
}

// waitBudget returns the quorum-wait budget for one protocol attempt under
// ctx: cfg.Timeout, clamped to the context's remaining time. An expired
// context yields an error that unwraps to both ErrTimeout and the context's
// own error — the outcome of an in-flight commit is unknown, exactly as on a
// retry-budget timeout.
func (c *Coordinator) waitBudget(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	d := c.cfg.Timeout
	if deadline, ok := ctx.Deadline(); ok {
		r := time.Until(deadline)
		if r <= 0 {
			return 0, fmt.Errorf("%w: %w", ErrTimeout, context.DeadlineExceeded)
		}
		if r < d {
			d = r
		}
	}
	return d, nil
}

// Coordinator drives transactions for one client. It is not safe for
// concurrent use: each closed-loop client owns one.
type Coordinator struct {
	cfg Config
	gen *timestamp.Generator
	rng transport.SplitMix64 // replica/core load balancing; no lock, no heap

	// readEp serves the execution phase; commitEps[p] serves the commit
	// protocol for partition p. Separate endpoints give each concurrent
	// per-partition phase its own reply queue, so no demultiplexer is
	// needed. Multi-reads ride the commit endpoints: their replies land on
	// the requesting partition's private queue.
	readEp    transport.Endpoint
	readInbox *transport.Inbox
	commitEps []transport.Endpoint
	commitIns []*transport.Inbox

	readSeq uint64
	obs     *obs.Shard // nil-safe lifecycle recorder (see Config.Obs)

	// shared is true for Session workers: the endpoints belong to the
	// session, so Close leaves them alone.
	shared bool

	// Per-coordinator scratch, reused across operations (the coordinator is
	// single-goroutine by contract). None of it is ever placed into a sent
	// message: the transport may deliver a message after the send times out
	// here, so anything a message carries must be freshly allocated.
	rt         rtimer      // Read/ReadMany retry deadline
	pt         phaseTimers // validate-phase timers for inline (single-partition) commits
	done       chan int    // multi-partition commit fan-in, reused across commits
	partsBuf   []partTxn   // split output headers (per-partition sets stay fresh)
	resultsBuf []partResult
	keyParts   []int                // partition of each key/entry during split and ReadMany
	partIdx    []int                // per-partition scratch indexed by partition id
	partOff    []int                // ReadMany group offsets, len Partitions+1
	origIdx    []int                // ReadMany: original index of each grouped key
	grouped    []string             // ReadMany keys in partition order (copied into each request)
	readRes    []message.ReadResult // ReadMany result scratch, returned to the caller
	roKeys     []roKeyState         // snapshot-read settlement scratch, aligned with grouped keys
	roOuts     []transport.Outgoing // snapshot-read send headers
	roDsts     []message.Addr       // snapshot-read destinations of one send
	roSent     []roSent             // per-partition snapshot request, for hedging
	hedgeT     rtimer               // snapshot-read hedge delay
	ro1        [1]string            // single-key scratch for SnapshotRead

	// lastTS is the highest timestamp this coordinator has committed at, on
	// either path. Snapshot round-down never goes below it, so one session's
	// reads can never miss that session's own writes.
	lastTS timestamp.Timestamp

	// rerouted latches that a wrong-shard redirect refreshed the shard-map
	// cache to a newer version, so Run's next retry can skip the backoff —
	// the re-routed attempt goes to a different replica group and cannot
	// re-collide with whatever aborted this one. Atomic because the
	// concurrent per-partition validate goroutines of one commit may all
	// observe redirects.
	rerouted atomic.Bool

	// groups[p*Cores+core] is the broadcast destination set for (p, core),
	// precomputed once so the per-commit phases never allocate it. Immutable
	// after New, hence safe to read from concurrent per-partition goroutines.
	groups [][]message.Addr
}

// group returns the precomputed broadcast addresses of core `core` on every
// replica of partition p.
func (c *Coordinator) group(p int, core uint32) []message.Addr {
	return c.groups[p*c.cfg.Topo.Cores+int(core)]
}

// partitionFor routes key to its partition: through the shard-map cache when
// the coordinator is shard-aware, else the topology's static key hash. The
// cache read is one atomic pointer load and the range lookup a binary search
// over a few entries — no allocation, no lock.
func (c *Coordinator) partitionFor(key string) int {
	if c.cfg.ShardMap != nil {
		return c.cfg.ShardMap.Current().GroupForKey(key)
	}
	return c.cfg.Topo.PartitionForKey(key)
}

// mapVersion is the shard-map version outgoing requests are stamped with, so
// replicas can tell how stale a redirected client is (0 = not shard-aware).
func (c *Coordinator) mapVersion() uint64 {
	if c.cfg.ShardMap == nil {
		return 0
	}
	return c.cfg.ShardMap.Current().Version()
}

// noteRedirect refreshes the shard-map cache after a wrong-shard reply and
// reports whether the refresh advanced to a newer map — in which case an
// immediate re-routed retry is worthwhile, and rerouted is latched for Run.
// Safe to call from the concurrent per-partition validate goroutines.
func (c *Coordinator) noteRedirect() bool {
	if c.cfg.ShardMap == nil {
		return false
	}
	_, advanced := c.cfg.ShardMap.Refresh()
	if advanced {
		c.obs.Inc(obs.MapRefresh)
		c.rerouted.Store(true)
	}
	return advanced
}

// newCore builds a coordinator without binding any endpoints; New installs
// its own, Session workers share the session's. cfg must already be filled
// and its topology validated.
func newCore(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:  cfg,
		gen:  timestamp.NewGenerator(cfg.ClientID, cfg.Clock.Now),
		rng:  transport.SeedSplitMix64(uint64(cfg.Seed)),
		obs:  cfg.Obs,
		done: make(chan int, cfg.Topo.Partitions),
	}
	c.groups = make([][]message.Addr, cfg.Topo.Partitions*cfg.Topo.Cores)
	for p := 0; p < cfg.Topo.Partitions; p++ {
		for core := 0; core < cfg.Topo.Cores; core++ {
			c.groups[p*cfg.Topo.Cores+core] = cfg.Topo.GroupAddrs(p, uint32(core))
		}
	}
	return c
}

// inboxDepth sizes reply inboxes: one operation's replies plus stragglers
// from retried earlier attempts, so size to the replica group with generous
// headroom rather than a flat constant.
func inboxDepth(t topo.Topology) int {
	depth := 8 * t.Replicas
	if depth < 256 {
		depth = 256
	}
	return depth
}

// New binds a coordinator's endpoints on cfg.Net.
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if !cfg.Topo.Validate() {
		return nil, fmt.Errorf("coordinator: invalid topology %+v", cfg.Topo)
	}
	c := newCore(cfg)
	depth := inboxDepth(cfg.Topo)
	base := cfg.Topo.ClientAddr(cfg.ClientID)
	c.readInbox = transport.NewInbox(depth)
	ep, err := cfg.Net.ListenDirect(base, c.readInbox.Handle)
	if err != nil {
		return nil, err
	}
	c.readEp = ep
	for p := 0; p < cfg.Topo.Partitions; p++ {
		in := transport.NewInbox(depth)
		ep, err := cfg.Net.ListenDirect(message.Addr{Node: base.Node, Core: uint32(1 + p)}, in.Handle)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.commitEps = append(c.commitEps, ep)
		c.commitIns = append(c.commitIns, in)
	}
	return c, nil
}

// Close releases the coordinator's endpoints. Session workers share the
// session's endpoints and leave closing them to Session.Close.
func (c *Coordinator) Close() {
	if c.shared {
		return
	}
	if c.readEp != nil {
		c.readEp.Close()
	}
	for _, ep := range c.commitEps {
		ep.Close()
	}
}

// Read performs one execution-phase read: it asks a uniformly chosen replica
// core of the key's partition for the latest committed version. A missing
// key returns ok=false with version Zero — still a meaningful read that the
// validation phase will check.
func (c *Coordinator) Read(key string) (value []byte, version timestamp.Timestamp, ok bool, err error) {
	return c.ReadCtx(context.Background(), key)
}

// ReadCtx is Read under a context: the per-attempt wait shrinks to the
// context's remaining time, and cancellation ends the retry loop early.
// Reads are idempotent, so a context-expired read is always safe to retry.
func (c *Coordinator) ReadCtx(ctx context.Context, key string) (value []byte, version timestamp.Timestamp, ok bool, err error) {
	c.readSeq++
	seq := c.readSeq
	c.readInbox.Drain()

	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.obs.Inc(obs.ReadRetry)
			// The coordinator is single-goroutine, so reads may draw their
			// backoff jitter from the shared rng.
			sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, &c.rng), &c.rt)
		}
		budget, berr := c.waitBudget(ctx)
		if berr != nil {
			return nil, timestamp.Timestamp{}, false, berr
		}
		// Routed per attempt: a wrong-shard redirect below refreshes the map
		// cache, and the resent read must go to the new owner.
		p := c.partitionFor(key)
		// Load-balance GETs across replicas and cores, as in §6.2.
		r := c.rng.Intn(c.cfg.Topo.Replicas)
		core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
		dst := c.cfg.Topo.ReplicaAddr(p, r, core)
		// Sent to one replica alone, which releases it after replying.
		req := message.AcquireMessage()
		req.Type, req.Key, req.Seq, req.MapVersion = message.TypeRead, key, seq, c.mapVersion()
		err = c.readEp.Send(dst, req)
		if err != nil {
			return nil, timestamp.Timestamp{}, false, err
		}
		deadline := c.rt.arm(budget)
	wait:
		for {
			select {
			case m := <-c.readInbox.C:
				if m.Type != message.TypeReadReply || m.Seq != seq {
					release(m)
					continue // stale reply
				}
				wrong, value, version, ok := m.WrongShard, m.Value, m.TS, m.OK
				release(m)
				if wrong {
					// Routed with a stale map. If the refresh advanced it,
					// the next attempt re-routes (reads are idempotent);
					// otherwise the split is still mid-fence and the caller
					// must back off before asking again.
					c.obs.Inc(obs.TxnWrongShard)
					if !c.noteRedirect() {
						return nil, timestamp.Timestamp{}, false, ErrWrongShard
					}
					break wait
				}
				return value, version, ok, nil
			case <-ctx.Done():
				break wait
			case <-deadline:
				break wait
			}
		}
	}
	return nil, timestamp.Timestamp{}, false, ErrTimeout
}

// sendMultiRead fires one batched read at a uniformly chosen replica core of
// partition p, through the partition's commit endpoint so the reply lands on
// a queue no other partition shares. The request is pooled and carries its
// own copy of keys, so it never aliases the caller's scratch: the replica it
// is sent to alone releases it after replying.
func (c *Coordinator) sendMultiRead(p int, keys []string, seq uint64) error {
	r := c.rng.Intn(c.cfg.Topo.Replicas)
	core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
	dst := c.cfg.Topo.ReplicaAddr(p, r, core)
	m := message.AcquireMessage()
	m.Type, m.Seq, m.MapVersion = message.TypeMultiRead, seq, c.mapVersion()
	m.Keys = append(m.Keys, keys...)
	return c.commitEps[p].Send(dst, m)
}

// ReadMany performs one batched execution phase over keys: the keys are
// grouped by partition and one multi-read is sent to a uniformly chosen
// replica core of each touched partition, with every request in flight
// before any reply is awaited — a transaction's whole read set costs one
// round trip instead of one per key. Results are index-aligned with keys;
// missing keys come back OK=false with version Zero, exactly as in Read.
//
// Like single reads, batched reads are served from the lock-free versioned
// store by any replica core, so batching preserves the zero-coordination
// execution phase (§5.2.1) while amortizing its per-message cost.
//
// The returned slice is a scratch reused by the next ReadMany call on this
// coordinator; callers that need the results past that must copy them out.
func (c *Coordinator) ReadMany(keys []string) ([]message.ReadResult, error) {
	return c.ReadManyCtx(context.Background(), keys)
}

// ReadManyCtx is ReadMany under a context: per-attempt waits shrink to the
// context's remaining time and cancellation ends the per-partition retry
// loops early. Like single reads, batched reads are idempotent and safe to
// retry after a context-expired attempt.
func (c *Coordinator) ReadManyCtx(ctx context.Context, keys []string) ([]message.ReadResult, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	nparts := c.cfg.Topo.Partitions
	if cap(c.grouped) < len(keys) {
		c.grouped = make([]string, len(keys))
	}
	grouped := c.grouped[:len(keys)]
	off, origIdx := c.groupByPartition(keys, grouped)

	c.readSeq++
	seq := c.readSeq
	if cap(c.readRes) < len(keys) {
		c.readRes = make([]message.ReadResult, len(keys))
	}
	out := c.readRes[:len(keys)]

	// Fire every partition's request before collecting any reply, so the
	// per-partition round trips overlap without spawning goroutines.
	for p := 0; p < nparts; p++ {
		if off[p+1] == off[p] {
			continue
		}
		c.commitIns[p].Drain()
		if err := c.sendMultiRead(p, grouped[off[p]:off[p+1]], seq); err != nil {
			return nil, err
		}
		c.obs.Inc(obs.ReadMultiRound)
	}

	// Collect per partition; a timed-out partition is resent (to a freshly
	// chosen replica) without disturbing partitions already answered.
	for p := 0; p < nparts; p++ {
		want := off[p+1] - off[p]
		if want == 0 {
			continue
		}
		in := c.commitIns[p]
		got := false
		for attempt := 0; attempt <= c.cfg.Retries && !got; attempt++ {
			if attempt > 0 {
				c.obs.Inc(obs.ReadMultiRetry)
				sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, &c.rng), &c.rt)
			}
			budget, berr := c.waitBudget(ctx)
			if berr != nil {
				return nil, berr
			}
			if attempt > 0 {
				if err := c.sendMultiRead(p, grouped[off[p]:off[p+1]], seq); err != nil {
					return nil, err
				}
			}
			deadline := c.rt.arm(budget)
		wait:
			for {
				// Fast path: a reply that is already queued (the replica ran
				// while this goroutine was collecting another partition) is
				// taken without the full select machinery.
				var m *message.Message
				select {
				case m = <-in.C:
				default:
					select {
					case m = <-in.C:
					case <-ctx.Done():
						break wait
					case <-deadline:
						break wait
					}
				}
				if m.Type != message.TypeMultiReadReply || m.Seq != seq {
					release(m)
					continue // stale reply from an earlier operation
				}
				if m.WrongShard {
					// The whole grouping was computed from a stale map:
					// refresh and make the caller re-issue the batch, which
					// will regroup every key under the new map.
					release(m)
					c.obs.Inc(obs.TxnWrongShard)
					c.noteRedirect()
					return nil, ErrWrongShard
				}
				if len(m.Reads) != want {
					release(m)
					continue // stale reply from an earlier operation
				}
				for j := range m.Reads {
					out[origIdx[off[p]+j]] = m.Reads[j]
				}
				release(m)
				got = true
				break wait
			}
		}
		if !got {
			return nil, ErrTimeout
		}
	}
	return out, nil
}

// groupByPartition writes keys into grouped (of the same length) as
// contiguous ascending-partition spans: span p is grouped[off[p]:off[p+1]]
// (off has Partitions+1 entries), and origIdx maps each grouped slot back to
// its position in keys. off and origIdx are coordinator scratch, valid until
// the next read operation.
func (c *Coordinator) groupByPartition(keys, grouped []string) (off, origIdx []int) {
	nparts := c.cfg.Topo.Partitions
	if c.partIdx == nil || len(c.partIdx) < nparts {
		c.partIdx = make([]int, nparts)
		c.partOff = make([]int, nparts+1)
	}
	cursor, off := c.partIdx, c.partOff
	for p := 0; p < nparts; p++ {
		cursor[p] = 0
	}
	if cap(c.keyParts) < len(keys) {
		c.keyParts = make([]int, len(keys))
	}
	if cap(c.origIdx) < len(keys) {
		c.origIdx = make([]int, len(keys))
	}
	kp, origIdx := c.keyParts[:len(keys)], c.origIdx[:len(keys)]
	for i, k := range keys {
		p := c.partitionFor(k)
		kp[i] = p
		cursor[p]++
	}
	sum := 0
	for p := 0; p < nparts; p++ {
		off[p] = sum
		sum += cursor[p]
		cursor[p] = off[p]
	}
	off[nparts] = sum
	for i, p := range kp {
		grouped[cursor[p]] = keys[i]
		origIdx[cursor[p]] = i
		cursor[p]++
	}
	return off, origIdx
}

// Txn accumulates a transaction's read and write sets on the client, with
// read-your-writes and read-caching semantics.
//
// Set membership is checked by linear scan, not an index map: OLTP read/write
// sets are a handful of entries (YCSB-T touches 4 keys, Retwis at most a
// dozen), where scanning a slice beats hashing and — unlike two lazily built
// maps — costs the commit hot path zero allocations.
type Txn struct {
	c        *Coordinator
	reads    []message.ReadSetEntry
	readVals [][]byte
	writes   []message.WriteSetEntry
	ops      []message.OpSetEntry

	// opErr latches a misuse of the op API (mixing op kinds on one key);
	// Commit surfaces it instead of shipping a transaction the replicas
	// cannot merge.
	opErr error

	// committedAt is the serialization timestamp, set once Commit decides.
	committedAt timestamp.Timestamp
	id          timestamp.TxnID

	// coreID and unresolved record where a timed-out commit was in flight —
	// the processing core and the touched partitions — so Resolve can drive
	// the recovery procedure for exactly those (partition, core) groups.
	// unresolved is non-empty only after Commit returned ErrTimeout.
	coreID     uint32
	unresolved []int

	// ro marks the transaction read-only (ReadOnly was called). roViable is
	// true while the snapshot fast path is still serving it, and clears on
	// demotion — a buffered write or op, or a snapshot that would not
	// confirm. snapTS is the snapshot timestamp, fixed by the first snapshot
	// read so the whole transaction observes one consistent cut.
	ro       bool
	roViable bool
	snapTS   timestamp.Timestamp
	// roCommitted records that Commit took the read-only fast path, in which
	// case committedAt is the snapshot timestamp.
	roCommitted bool
}

// Begin starts a new transaction.
func (c *Coordinator) Begin() *Txn {
	return &Txn{c: c}
}

// findWrite returns the write-set position of key, or -1.
func (t *Txn) findWrite(key string) int {
	for i := range t.writes {
		if t.writes[i].Key == key {
			return i
		}
	}
	return -1
}

// findRead returns the read-set position of key, or -1.
func (t *Txn) findRead(key string) int {
	for i := range t.reads {
		if t.reads[i].Key == key {
			return i
		}
	}
	return -1
}

// findOp returns the op-set position of key, or -1.
func (t *Txn) findOp(key string) int {
	for i := range t.ops {
		if t.ops[i].Key == key {
			return i
		}
	}
	return -1
}

// Read returns the value of key as of this transaction's snapshot: a
// buffered write if the transaction wrote the key, the previously read value
// if it already read it, or a fresh versioned read from a replica.
func (t *Txn) Read(key string) ([]byte, error) {
	return t.ReadCtx(context.Background(), key)
}

// ReadCtx is Read under a context (see Coordinator.ReadCtx).
//
// Reading a key with a buffered commutative op performs a real versioned read
// (which joins the read set and is validated like any other) and returns the
// op applied to the value read — read-your-ops. Note that this trades back
// the op's abort immunity for that key: the transaction now carries a read
// version a conflicting writer can invalidate.
func (t *Txn) ReadCtx(ctx context.Context, key string) ([]byte, error) {
	if i := t.findWrite(key); i >= 0 {
		return t.writes[i].Value, nil
	}
	if i := t.findRead(key); i >= 0 {
		return t.applyPendingOp(key, t.readVals[i]), nil
	}
	if t.roViable {
		t.c.ro1[0] = key
		res, served, err := t.snapshotFetch(ctx, t.c.ro1[:])
		if err != nil {
			return nil, err
		}
		if served {
			// The snapshot read still joins the read set: if the transaction
			// later demotes (a write, or an unconfirmable second fetch), it
			// commits classically and these reads validate like any others.
			v := res[0]
			t.reads = append(t.reads, message.ReadSetEntry{Key: key, WTS: v.WTS, VHash: message.HashValue(v.Value)})
			t.readVals = append(t.readVals, v.Value)
			return t.applyPendingOp(key, v.Value), nil
		}
		// Demoted: fall through to the classic read.
	}
	val, ver, _, err := t.c.ReadCtx(ctx, key)
	if err != nil {
		return nil, err
	}
	// VHash identifies the observed value, not just its timestamp: a
	// commutative op merging below ver would change the value without
	// moving ver, and validation must notice (see message.ReadSetEntry).
	t.reads = append(t.reads, message.ReadSetEntry{Key: key, WTS: ver, VHash: message.HashValue(val)})
	t.readVals = append(t.readVals, val)
	return t.applyPendingOp(key, val), nil
}

// applyPendingOp materializes the transaction's buffered op for key on top of
// a value read from the store, so reads observe the transaction's own ops.
func (t *Txn) applyPendingOp(key string, val []byte) []byte {
	if i := t.findOp(key); i >= 0 {
		o := &t.ops[i]
		return message.ApplyOp(nil, val, o.Kind, o.Delta, o.Arg)
	}
	return val
}

// ReadMany reads every key in keys as of this transaction's snapshot,
// batching all keys that need a replica round trip into one coordinator
// ReadMany call (one multi-read per touched partition, in parallel). The
// returned values are index-aligned with keys. Buffered writes, earlier
// reads, and duplicate keys within the batch are honored exactly as per-key
// Read would: each key is fetched at most once and lands in the read set at
// most once.
func (t *Txn) ReadMany(keys []string) ([][]byte, error) {
	return t.ReadManyCtx(context.Background(), keys)
}

// ReadManyCtx is ReadMany under a context (see Coordinator.ReadManyCtx).
func (t *Txn) ReadManyCtx(ctx context.Context, keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	fetch := make([]string, 0, len(keys))
	for _, key := range keys {
		if t.findWrite(key) >= 0 || t.findRead(key) >= 0 {
			continue
		}
		dup := false
		for _, f := range fetch {
			if f == key {
				dup = true
				break
			}
		}
		if !dup {
			fetch = append(fetch, key)
		}
	}
	if len(fetch) > 0 {
		var res []message.ReadResult
		if t.roViable {
			r, served, err := t.snapshotFetch(ctx, fetch)
			if err != nil {
				return nil, err
			}
			if served {
				res = r
			}
		}
		if res == nil {
			r, err := t.c.ReadManyCtx(ctx, fetch)
			if err != nil {
				return nil, err
			}
			res = r
		}
		// Grow the read set once for the whole batch rather than along the
		// append doubling chain — under GOMAXPROCS=1 the GC competes with the
		// replicas for the CPU, so batch-path garbage is latency.
		if cap(t.reads)-len(t.reads) < len(fetch) {
			reads := make([]message.ReadSetEntry, len(t.reads), len(t.reads)+len(fetch))
			copy(reads, t.reads)
			t.reads = reads
			readVals := make([][]byte, len(t.readVals), len(t.readVals)+len(fetch))
			copy(readVals, t.readVals)
			t.readVals = readVals
		}
		for j, key := range fetch {
			t.reads = append(t.reads, message.ReadSetEntry{Key: key, WTS: res[j].WTS, VHash: message.HashValue(res[j].Value)})
			t.readVals = append(t.readVals, res[j].Value)
		}
	}
	for i, key := range keys {
		if j := t.findWrite(key); j >= 0 {
			vals[i] = t.writes[j].Value
		} else {
			vals[i] = t.applyPendingOp(key, t.readVals[t.findRead(key)])
		}
	}
	return vals, nil
}

// Write buffers a write; nothing reaches any replica until Commit. A write
// replaces any commutative op previously buffered for the key — the blind
// write's value does not depend on the op's outcome.
func (t *Txn) Write(key string, value []byte) {
	t.roViable = false // no longer read-only; commit classically
	if i := t.findOp(key); i >= 0 {
		t.ops = append(t.ops[:i], t.ops[i+1:]...)
	}
	if i := t.findWrite(key); i >= 0 {
		t.writes[i].Value = value
		return
	}
	t.writes = append(t.writes, message.WriteSetEntry{Key: key, Value: value})
}

// errMixedOps reports op kinds that cannot be folded into one entry.
var errMixedOps = errors.New("coordinator: mixed op kinds on one key in a single transaction")

// addOp buffers one commutative op for key. Ops on a key the transaction has
// already written fold into the buffered write immediately (the write is this
// transaction's view of the key). Repeat ops of the same kind fold into a
// single entry — increments sum, max/min keep the extreme, appends
// concatenate — so a key carries at most one op-set entry, which is what the
// replicas' merge requires (two ops at the same commit timestamp are
// indistinguishable from a replay). Mixing kinds on one key is not foldable
// without the key's value; it latches an error that Commit returns.
func (t *Txn) addOp(key string, kind message.OpKind, delta int64, arg []byte) {
	t.roViable = false // no longer read-only; commit classically
	if i := t.findWrite(key); i >= 0 {
		t.writes[i].Value = message.ApplyOp(nil, t.writes[i].Value, kind, delta, arg)
		return
	}
	i := t.findOp(key)
	if i < 0 {
		t.ops = append(t.ops, message.OpSetEntry{Key: key, Kind: kind, Delta: delta, Arg: arg})
		return
	}
	o := &t.ops[i]
	if o.Kind != kind {
		if t.opErr == nil {
			t.opErr = fmt.Errorf("%w: %s then %s on %q", errMixedOps, o.Kind, kind, key)
		}
		return
	}
	switch kind {
	case message.OpIncrement:
		o.Delta += delta
	case message.OpMax:
		if delta > o.Delta {
			o.Delta = delta
		}
	case message.OpMin:
		if delta < o.Delta {
			o.Delta = delta
		}
	case message.OpAppend:
		// Never append in place: arg may alias caller memory, and o.Arg may
		// alias a previous caller's.
		merged := make([]byte, 0, len(o.Arg)+len(arg))
		merged = append(merged, o.Arg...)
		merged = append(merged, arg...)
		o.Arg = merged
	}
}

// Add buffers a server-side increment of key by delta (negative deltas
// decrement). The op ships to the replicas instead of a read-version plus
// blind write, so concurrent Adds to the same key merge at their commit
// timestamps rather than aborting each other.
func (t *Txn) Add(key string, delta int64) { t.addOp(key, message.OpIncrement, delta, nil) }

// Append buffers a server-side append of b to key's value. The caller must
// not mutate b until Commit returns.
func (t *Txn) Append(key string, b []byte) { t.addOp(key, message.OpAppend, 0, b) }

// MergeMax buffers a server-side monotone merge: key's value becomes
// max(current, v), treating a missing or non-numeric value as v.
func (t *Txn) MergeMax(key string, v int64) { t.addOp(key, message.OpMax, v, nil) }

// MergeMin buffers the min-merge counterpart of MergeMax.
func (t *Txn) MergeMin(key string, v int64) { t.addOp(key, message.OpMin, v, nil) }

// ReadSetSize, WriteSetSize, and OpSetSize expose set sizes for tests and
// stats.
func (t *Txn) ReadSetSize() int  { return len(t.reads) }
func (t *Txn) WriteSetSize() int { return len(t.writes) }
func (t *Txn) OpSetSize() int    { return len(t.ops) }

// Commit runs the validation and write phases. It returns true if the
// transaction committed, false if it aborted due to conflicts, and an error
// if the outcome could not be determined within the retry budget. The error
// always unwraps to ErrTimeout; Resolve can then learn the final outcome.
func (t *Txn) Commit() (bool, error) {
	return t.c.commit(context.Background(), t)
}

// CommitCtx is Commit under a context: the context's deadline maps onto the
// commit protocol's per-attempt waits, and cancellation ends the retry loops
// early. A context-expired commit is outcome-unknown exactly like a
// retry-budget timeout — the returned error unwraps to both ErrTimeout and
// the context's error, and Resolve applies.
func (t *Txn) CommitCtx(ctx context.Context) (bool, error) {
	return t.c.commit(ctx, t)
}

// Resolve learns — or, if still undecided, forces — the final outcome of a
// transaction whose Commit returned ErrTimeout, by driving the
// cooperative-termination recovery procedure (§5.3.2) in every partition the
// commit touched. It returns whether the transaction committed. Without
// this, a client that timed out can never tell whether its writes landed;
// with it, a history survives fault injection with no maybe-committed holes.
//
// Each touched partition is driven to its recorded decision and the results
// are conjoined, mirroring how commit itself combines per-partition
// verdicts. The coordinator's single-goroutine contract applies: Resolve
// reuses the commit endpoints.
func (t *Txn) Resolve() (bool, error) {
	if len(t.unresolved) == 0 {
		return false, errors.New("coordinator: nothing to resolve (commit did not time out)")
	}
	committed := true
	for _, p := range t.unresolved {
		ok, err := t.c.RecoverTxn(p, t.id, t.coreID, 0)
		if err != nil {
			return false, err
		}
		committed = committed && ok
	}
	t.unresolved = t.unresolved[:0]
	if committed {
		t.c.obs.Inc(obs.TxnResolveCommit)
	} else {
		t.c.obs.Inc(obs.TxnResolveAbort)
	}
	return committed, nil
}

// Run executes fn inside transactions until one commits: the canonical
// retry loop. Conflict aborts retry after the capped, jittered backoff;
// read timeouts inside fn retry the same way (reads are idempotent); a
// commit timeout is resolved through the recovery procedure, so Run never
// reports success or failure while the outcome is actually unknown. Run
// returns nil once a transaction commits, the context's error (wrapped in
// ErrTimeout) once ctx expires, and fn's own error — aborting the loop — for
// anything else. fn may be called many times and must be safe to re-execute;
// it should build the transaction and return, leaving Commit to Run.
func (c *Coordinator) Run(ctx context.Context, fn func(*Txn) error) error {
	// Run executes on the coordinator's own goroutine, so the shared rng is
	// safe for its backoff jitter.
	immediate := false
	for attempt := 0; ; attempt++ {
		if attempt > 0 && !immediate {
			sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, &c.rng), &c.rt)
		}
		immediate = false
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrTimeout, err)
		}
		t := c.Begin()
		if err := fn(t); err != nil {
			if errors.Is(err, ErrWrongShard) && ctx.Err() == nil {
				// A read hit a moved range; the map cache was refreshed at
				// the reply site. Retry — immediately if the refresh
				// advanced the map (the re-routed attempt goes to a
				// different group), with backoff if the split is still
				// mid-fence and the new map is not published yet.
				immediate = c.rerouted.Swap(false)
				continue
			}
			if errors.Is(err, ErrTimeout) && ctx.Err() == nil {
				continue // a timed-out read is safe to retry
			}
			return err
		}
		ok, err := t.CommitCtx(ctx)
		if err != nil {
			if errors.Is(err, ErrWrongShard) && ctx.Err() == nil {
				// The commit aborted on a wrong-shard redirect — a known
				// outcome, not a timeout. Re-route and retry, as above.
				immediate = c.rerouted.Swap(false)
				continue
			}
			if !errors.Is(err, ErrTimeout) || ctx.Err() != nil {
				return err
			}
			// Outcome unknown: resolve it rather than guess. A resolve
			// failure keeps the uncertainty, so surface the original error.
			committed, rerr := t.Resolve()
			if rerr != nil {
				return err
			}
			if committed {
				return nil
			}
			continue // resolved to abort: retry
		}
		if ok {
			return nil
		}
		// Conflict abort: back off and retry.
	}
}

// Timestamp returns the transaction's serialization timestamp (valid after
// Commit returned true): committed transactions are one-copy serializable in
// timestamp order.
func (t *Txn) Timestamp() timestamp.Timestamp { return t.committedAt }

// ID returns the transaction id assigned at commit time.
func (t *Txn) ID() timestamp.TxnID { return t.id }

// CommittedReadOnly reports whether Commit went through the read-only fast
// path — zero validation rounds — in which case Timestamp is the snapshot
// timestamp rather than a fresh generator draw.
func (t *Txn) CommittedReadOnly() bool { return t.roCommitted }

// ReadSet, WriteSet, and OpSet expose the transaction's sets for verification
// tooling (the serializability checker); callers must not mutate them.
func (t *Txn) ReadSet() []message.ReadSetEntry   { return t.reads }
func (t *Txn) WriteSet() []message.WriteSetEntry { return t.writes }
func (t *Txn) OpSet() []message.OpSetEntry       { return t.ops }

// partTxn is the slice of a transaction owned by one partition.
type partTxn struct {
	p   int
	txn message.Txn
}

// partResult is one partition's validate-phase outcome.
type partResult struct {
	commit bool
	slow   bool
	err    error
}

// split carves the transaction into per-partition pieces, emitted in
// ascending partition order so the send order is deterministic (and tests
// can assert on it). The partTxn headers live in a scratch reused across
// commits; the per-partition read/write sets are freshly allocated each
// time, because validated replicas alias them into their trecords.
func (c *Coordinator) split(t *Txn, tid timestamp.TxnID) []partTxn {
	if len(t.reads)+len(t.writes)+len(t.ops) == 0 {
		return nil // empty transaction: nothing to validate anywhere
	}
	nparts := c.cfg.Topo.Partitions
	if nparts == 1 {
		c.partsBuf = append(c.partsBuf[:0], partTxn{p: 0, txn: message.Txn{ID: tid, ReadSet: t.reads, WriteSet: t.writes, OpSet: t.ops}})
		return c.partsBuf
	}
	if c.partIdx == nil || len(c.partIdx) < nparts {
		c.partIdx = make([]int, nparts)
		c.partOff = make([]int, nparts+1)
	}
	idx := c.partIdx // idx[p] = 1 + position of partition p in out; 0 = untouched
	for p := 0; p < nparts; p++ {
		idx[p] = 0
	}
	n := len(t.reads) + len(t.writes) + len(t.ops)
	if cap(c.keyParts) < n {
		c.keyParts = make([]int, n)
	}
	kp := c.keyParts[:0]
	for i := range t.reads {
		kp = append(kp, c.partitionFor(t.reads[i].Key))
	}
	for i := range t.writes {
		kp = append(kp, c.partitionFor(t.writes[i].Key))
	}
	for i := range t.ops {
		kp = append(kp, c.partitionFor(t.ops[i].Key))
	}
	c.keyParts = kp
	for _, p := range kp {
		idx[p] = 1
	}
	out := c.partsBuf[:0]
	for p := 0; p < nparts; p++ {
		if idx[p] != 0 {
			out = append(out, partTxn{p: p, txn: message.Txn{ID: tid}})
			idx[p] = len(out)
		}
	}
	for i := range t.reads {
		tx := &out[idx[kp[i]]-1].txn
		tx.ReadSet = append(tx.ReadSet, t.reads[i])
	}
	for i := range t.writes {
		tx := &out[idx[kp[len(t.reads)+i]]-1].txn
		tx.WriteSet = append(tx.WriteSet, t.writes[i])
	}
	for i := range t.ops {
		tx := &out[idx[kp[len(t.reads)+len(t.writes)+i]]-1].txn
		tx.OpSet = append(tx.OpSet, t.ops[i])
	}
	c.partsBuf = out
	return out
}

// commit implements steps 1–6 of §5.2.2, extended to distributed
// transactions per §5.2.4: the validation phase runs in every partition the
// transaction touched, and the transaction commits only if every partition
// validates it.
func (c *Coordinator) commit(ctx context.Context, t *Txn) (bool, error) {
	if t.opErr != nil {
		return false, t.opErr
	}
	start := time.Now()
	// Read-only fast path: a transaction whose every read was served and
	// confirmed at one snapshot timestamp, and that buffered no writes or
	// ops, is already serialized at that snapshot — each touched replica
	// vouched, under the per-key read-timestamp guard, that nothing can
	// commit at or below it on the keys read. Commit is local: zero
	// validation rounds, zero messages.
	if t.roViable && len(t.writes) == 0 && len(t.ops) == 0 && !t.snapTS.IsZero() {
		t.committedAt = t.snapTS
		t.id = c.gen.NextID()
		t.roCommitted = true
		if c.lastTS.Less(t.snapTS) {
			c.lastTS = t.snapTS
		}
		c.obs.Inc(obs.TxnCommitRO)
		c.obs.Observe(obs.HistCommit, time.Since(start))
		return true, nil
	}
	// Step 1: pick the processing core, the proposed timestamp, and the
	// transaction id. The timestamp comes from the client's loosely
	// synchronized clock — no coordination.
	coreID := uint32(c.rng.Intn(c.cfg.Topo.Cores))
	ts := c.gen.NextTimestamp()
	tid := c.gen.NextID()
	t.committedAt = ts
	t.id = tid
	t.coreID = coreID
	t.unresolved = t.unresolved[:0]

	parts := c.split(t, tid)
	if len(parts) == 0 {
		return true, nil // empty transaction commits trivially; no lifecycle
	}

	// Steps 2–5 in each touched partition. A single-partition transaction —
	// the common case under uniform key hashing — runs inline on the
	// caller's goroutine with the coordinator's reusable timers: no goroutine
	// spawn, no channel round trip. Multi-partition transactions fan out one
	// goroutine per partition, rejoining through the persistent done channel.
	if cap(c.resultsBuf) < len(parts) {
		c.resultsBuf = make([]partResult, len(parts))
	}
	results := c.resultsBuf[:len(parts)]
	if len(parts) == 1 {
		ok, slow, err := c.validatePhase(ctx, parts[0].p, &parts[0].txn, ts, coreID, &c.pt)
		results[0] = partResult{commit: ok, slow: slow, err: err}
	} else {
		for i := range parts {
			go func(i int) {
				var pt phaseTimers
				ok, slow, err := c.validatePhase(ctx, parts[i].p, &parts[i].txn, ts, coreID, &pt)
				results[i] = partResult{commit: ok, slow: slow, err: err}
				c.done <- i
			}(i)
		}
		for range parts {
			<-c.done
		}
	}

	// The transaction commits fast only if every partition decided on the
	// fast path; one slow partition makes it a slow-path commit. An abort's
	// reason is taken from how the aborting partition decided: a fast-path
	// supermajority of VALIDATED-ABORT is a validation conflict, a slow-path
	// decision is an accept-abort.
	committed, anySlow, abortSlow, redirected := true, false, false, false
	for _, r := range results {
		if r.err != nil {
			if errors.Is(r.err, ErrWrongShard) {
				// A known abort on a wrong-shard redirect (see
				// validatePhase), not an unknown outcome: record it and keep
				// joining, so the abort broadcast below still reaches every
				// partition and finalizes any straggler VALIDATED-OK
				// records.
				committed = false
				redirected = true
				anySlow = anySlow || r.slow
				continue
			}
			if errors.Is(r.err, ErrTimeout) {
				c.obs.Inc(obs.TxnAbortTimeout)
				// Outcome unknown: remember which (partition, core) groups
				// the protocol ran in, so Resolve can finish the job.
				for i := range parts {
					t.unresolved = append(t.unresolved, parts[i].p)
				}
			}
			return false, r.err
		}
		anySlow = anySlow || r.slow
		if !r.commit {
			committed = false
			abortSlow = abortSlow || r.slow
		}
	}

	// Step 3/6: asynchronously broadcast the final outcome. The paper
	// piggybacks this on the client's next message; sending immediately on
	// a non-blocking transport is equivalent.
	st := message.StatusCommitted
	if !committed {
		st = message.StatusAborted
	}
	outcome := message.Message{Type: message.TypeCommit, TID: tid, Status: st, CoreID: coreID}
	for i := range parts {
		// One batch per partition endpoint: the whole replica group's
		// commit notifications leave in one syscall on the real wire (each
		// destination still gets its own freshly allocated copy — the
		// transport stamps Src on send, so messages must not be shared).
		// The fan-in above already happened, so c.pt's scratch is free even
		// for multi-partition commits.
		c.pt.outs = broadcast(c.commitEps[parts[i].p], c.group(parts[i].p, coreID), &outcome, c.pt.outs)
	}

	if committed && c.lastTS.Less(ts) {
		c.lastTS = ts // snapshot round-down floor (see snapshotBegin)
	}
	if redirected {
		// Surface the redirect: Run refreshes its routing and retries the
		// whole transaction against the new map instead of treating this as
		// a conflict. TxnWrongShard was counted where the redirect landed.
		c.obs.Observe(obs.HistAbort, time.Since(start))
		return false, ErrWrongShard
	}
	switch {
	case committed && !anySlow:
		c.obs.Inc(obs.TxnCommitFast)
		c.obs.Observe(obs.HistCommit, time.Since(start))
	case committed:
		c.obs.Inc(obs.TxnCommitSlow)
		c.obs.Observe(obs.HistCommit, time.Since(start))
	case abortSlow:
		c.obs.Inc(obs.TxnAbortAcceptAbort)
		c.obs.Observe(obs.HistAbort, time.Since(start))
	default:
		c.obs.Inc(obs.TxnAbortValidation)
		c.obs.Observe(obs.HistAbort, time.Since(start))
	}
	return committed, nil
}

// validatePhase runs the commit protocol for one partition and returns the
// partition's decision: true to commit, false to abort. slow reports whether
// the decision went through the slow path (an accept round) rather than the
// fast-path supermajority. pt supplies the phase's timers, reused across
// retry attempts (and, for inline single-partition commits, across
// transactions).
func (c *Coordinator) validatePhase(ctx context.Context, p int, txn *message.Txn, ts timestamp.Timestamp, coreID uint32, pt *phaseTimers) (commit, slow bool, err error) {
	ep, in := c.commitEps[p], c.commitIns[p]
	in.Drain()
	group := c.group(p, coreID)
	n := c.cfg.Topo.Replicas
	fast := c.cfg.Topo.FastQuorum()
	majority := c.cfg.Topo.Majority()

	// Backoff jitter draws come from a phase-local stream, never the shared
	// c.rng: multi-partition commits run one validatePhase per goroutine.
	jrng := transport.SeedSplitMix64(uint64(c.cfg.Seed) ^ txn.ID.Seq<<8 ^ uint64(p))

	req := message.Message{Type: message.TypeValidate, Txn: *txn, TID: txn.ID, TS: ts, CoreID: coreID, MapVersion: c.mapVersion()}

	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.obs.Inc(obs.TxnRetry)
			sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, &jrng), &pt.grace)
		}
		budget, berr := c.waitBudget(ctx)
		if berr != nil {
			return false, false, berr
		}
		pt.outs = broadcast(ep, group, &req, pt.outs)

		// Step 3: collect validate-replies, watching for the fast-path
		// supermajority of matching responses. Once a majority is in, give
		// the stragglers only a short grace window before taking the slow
		// path — a crashed replica must not cost a full timeout per txn.
		// Repliers are tracked in a bitmask, not a map: replica counts are
		// topologically tiny (quorums of 3 or 5), and a map here costs an
		// allocation per commit attempt on the hot path.
		var seen uint64 // bit i set <=> replica i replied
		replied := 0
		countOK, countAbort, countWrong := 0, 0, 0
		deadline := pt.deadline.arm(budget)
		var grace <-chan time.Time
	collect:
		for {
			// Fast path: replies already queued (all replicas typically ran
			// while this goroutine was parked on the first one) skip the
			// select machinery; grace and deadline only matter once the
			// queue is empty.
			var m *message.Message
			select {
			case m = <-in.C:
			default:
				select {
				case <-grace:
					break collect
				case m = <-in.C:
				case <-ctx.Done():
					break collect
				case <-deadline:
					break collect
				}
			}
			if m.Type != message.TypeValidateReply || m.TID != txn.ID ||
				m.ReplicaID >= 64 || seen&(1<<m.ReplicaID) != 0 {
				release(m)
				continue
			}
			seen |= 1 << m.ReplicaID
			replied++
			wrong, status := m.WrongShard, m.Status
			release(m)
			if wrong {
				// The replica refused: under its current map it no longer
				// owns part of this piece — a shard split sealed the range
				// between the client's routing decision and this validate.
				// Keep collecting; how many replicas validated OK before the
				// seal decides (below) whether a plain abort is safe.
				countWrong++
			} else {
				switch status {
				case message.StatusValidatedOK:
					countOK++
				case message.StatusValidatedAbort:
					countAbort++
				case message.StatusCommitted:
					// Another coordinator already finished it.
					return true, false, nil
				case message.StatusAborted:
					return false, false, nil
				}
				if !c.cfg.DisableFastPath {
					if countOK >= fast {
						return true, false, nil
					}
					if countAbort >= fast {
						return false, false, nil
					}
				}
			}
			if replied == n {
				break collect
			}
			if replied >= majority && grace == nil {
				g := c.cfg.Timeout / 10
				if g <= 0 {
					g = time.Millisecond
				}
				grace = pt.grace.arm(g)
			}
		}

		// Wrong-shard redirects: the client routed this piece with a stale
		// map. Aborting outright is only safe if no merge or recovery rule
		// could later decide commit — the epoch merge re-validates anything
		// with ceil(f/2)+1 VALIDATED-OK records (rule 4), and replicas that
		// never replied must be assumed to have validated OK before the
		// seal. Below that worst-case threshold the redirect is a provably
		// safe abort; at or above it, learn the authoritative outcome
		// through coordinator recovery instead of guessing.
		if countWrong > 0 {
			c.obs.Inc(obs.TxnWrongShard)
			c.noteRedirect()
			if countOK+(n-replied) >= (c.cfg.Topo.F()+1)/2+1 {
				commit, err = c.RecoverTxn(p, txn.ID, coreID, 0)
				if err == nil && !commit {
					// Known abort via recovery: surface the redirect so the
					// caller re-routes instead of conflict-backing-off.
					err = ErrWrongShard
				}
				return commit, true, err
			}
			return false, false, ErrWrongShard
		}

		// Step 4: the fast path condition was not met. With a majority of
		// replies, take the slow path; otherwise resend the validate.
		if replied >= majority {
			proposal := message.StatusAcceptAbort
			if countOK >= majority {
				proposal = message.StatusAcceptCommit
			}
			commit, err = c.slowPath(ctx, p, txn, ts, coreID, proposal, 0, pt, &jrng)
			return commit, true, err
		}
	}
	return false, false, ErrTimeout
}

// slowPath runs steps 4–6 of the commit protocol: an accept round that gets
// a majority of replicas to durably record the proposed outcome. If the
// proposal is superseded by a higher view (a backup coordinator took over),
// the coordinator escalates to the recovery procedure to learn the final
// outcome.
func (c *Coordinator) slowPath(ctx context.Context, p int, txn *message.Txn, ts timestamp.Timestamp, coreID uint32, proposal message.Status, view uint64, pt *phaseTimers, jrng *transport.SplitMix64) (bool, error) {
	ep, in := c.commitEps[p], c.commitIns[p]
	group := c.group(p, coreID)
	majority := c.cfg.Topo.Majority()

	req := message.Message{
		Type: message.TypeAccept, TID: txn.ID, Status: proposal, View: view,
		Txn: *txn, TS: ts, CoreID: coreID,
	}

	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.obs.Inc(obs.TxnRetry)
			sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, jrng), &pt.grace)
		}
		budget, berr := c.waitBudget(ctx)
		if berr != nil {
			return false, berr
		}
		pt.outs = broadcast(ep, group, &req, pt.outs)
		var acked uint64 // bitmask, as in validatePhase
		acks := 0
		superseded := uint64(0)
		deadline := pt.deadline.arm(budget)
	collect:
		for {
			var m *message.Message
			select {
			case m = <-in.C:
			default:
				select {
				case m = <-in.C:
				case <-ctx.Done():
					break collect
				case <-deadline:
					break collect
				}
			}
			if m.Type != message.TypeAcceptReply || m.TID != txn.ID {
				release(m)
				continue
			}
			ok, mview, rid := m.OK, m.View, m.ReplicaID
			release(m)
			if !ok {
				if mview > superseded {
					superseded = mview
				}
				continue
			}
			if mview != view {
				continue
			}
			if rid >= 64 || acked&(1<<rid) != 0 {
				continue
			}
			acked |= 1 << rid
			acks++
			if acks >= majority {
				return proposal == message.StatusAcceptCommit, nil
			}
		}
		if superseded > view {
			// A backup coordinator holds a higher view: join the recovery
			// protocol at a view above it to learn the decided outcome.
			return c.RecoverTxn(p, txn.ID, coreID, superseded)
		}
	}
	return false, ErrTimeout
}
