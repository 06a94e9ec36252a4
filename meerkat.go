// Package meerkat is a multicore-scalable, replicated, in-memory,
// transactional key-value store — an implementation of the system described
// in "Meerkat: Multicore-Scalable Replicated Transactions Following the
// Zero-Coordination Principle" (Szekeres et al., EuroSys 2020).
//
// Meerkat provides one-copy serializable interactive transactions over
// n = 2f+1 replicas, tolerating f crash failures, and is designed so that
// non-conflicting transactions require no cross-core and no cross-replica
// coordination (the Zero-Coordination Principle): transaction state is
// partitioned per core, storage metadata per key, timestamps come from
// client clocks, and the commit protocol's fast path decides in a single
// round trip to the replicas.
//
// # Quick start
//
//	cluster, err := meerkat.NewCluster(meerkat.Config{})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	client, err := cluster.NewClient()
//	if err != nil { ... }
//
//	txn := client.Begin()
//	balance, _ := txn.Read("alice")
//	txn.Write("alice", newBalance)
//	committed, err := txn.Commit()
//
// Commit returns false when optimistic validation failed (a conflicting
// transaction won); retry the transaction. See the examples directory for
// complete programs.
package meerkat

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/faultnet"
	"meerkat/internal/obs"
	"meerkat/internal/recovery"
	"meerkat/internal/replica"
	"meerkat/internal/shardmap"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
	"meerkat/internal/vstore"
	"meerkat/internal/wal"
)

// SyncPolicy selects when the durability layer fsyncs appended commit
// records; see internal/wal for the exact semantics of each policy.
type SyncPolicy = wal.SyncPolicy

// Re-exported sync policies, so callers configure durability without
// importing internal packages.
const (
	// SyncBatch groups fsyncs off the commit path (default).
	SyncBatch = wal.SyncBatch
	// SyncNone never fsyncs; survives process crashes only.
	SyncNone = wal.SyncNone
	// SyncAlways fsyncs inside every commit before it is applied.
	SyncAlways = wal.SyncAlways
)

// ParseSyncPolicy parses "none", "batch", or "always" (command-line flags).
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// Durability configures the optional persistence layer: one write-ahead log
// per replica core (the zero-coordination principle extended to disk — no
// shared log), group-commit fsync batching, periodic snapshots with log
// truncation, and crash-restart recovery that replays local state before
// fetching only the delta from a live replica. The zero value (empty
// DataDir) disables persistence entirely.
type Durability struct {
	// DataDir is the root directory for all replicas' logs and snapshots;
	// each replica uses the subdirectory "p<partition>-r<index>". Setting
	// it enables durability.
	DataDir string
	// Sync is the fsync policy: SyncBatch (default), SyncNone, SyncAlways.
	Sync SyncPolicy
	// GroupCommitInterval is the SyncBatch fsync cadence. Default 2ms.
	GroupCommitInterval time.Duration
	// SnapshotInterval is how often each replica snapshots its store and
	// truncates its logs. Default 30s; negative disables the periodic
	// snapshotter (logs grow until Snapshot is called another way).
	SnapshotInterval time.Duration
	// MaxLogSegment rotates a core's log file beyond this size; snapshot
	// truncation deletes whole segments. Default 64 MiB.
	MaxLogSegment int64
	// DeltaMargin is subtracted from the replayed-log watermark when a
	// recovering replica asks a donor for the post-crash delta, covering
	// commits that were applied out of timestamp order around the crash.
	// The default is derived from the protocol knobs that bound how long a
	// commit's finalization can trail its timestamp assignment (StaleAfter/
	// SweepInterval, CommitTimeout, Retries, BackoffMax, ClockSkew), with a
	// 10s floor. Donors additionally ship keys whose commit they applied
	// (wall clock) after the replica crashed, so even a finalization
	// exceeding the margin — a coordinator outage longer than the sweeper
	// bound — cannot silently strand stale keys. The epoch change that
	// follows recovery reconciles in-flight transactions regardless.
	DeltaMargin time.Duration
}

// Enabled reports whether durability is configured.
func (d *Durability) Enabled() bool { return d.DataDir != "" }

// walOptions translates the validated config into internal/wal options.
// sched is the cluster-wide group-commit scheduler: every replica the
// process hosts shares one, so their per-core log fsyncs coalesce into
// (almost) one journal commit per tick instead of replicas×cores.
func (d *Durability) walOptions(sched *wal.Scheduler) wal.Options {
	return wal.Options{
		Sync:                d.Sync,
		GroupCommitInterval: d.GroupCommitInterval,
		SnapshotInterval:    d.SnapshotInterval,
		MaxSegmentBytes:     d.MaxLogSegment,
		Scheduler:           sched,
	}
}

// replicaDir is the durability directory of one replica.
func (d *Durability) replicaDir(p, r int) string {
	return filepath.Join(d.DataDir, fmt.Sprintf("p%d-r%d", p, r))
}

// TransportKind selects the message fabric of a cluster.
type TransportKind int

const (
	// TransportInproc runs all replicas in this process over per-core
	// delivery queues — the kernel-bypass-class transport. Default.
	TransportInproc TransportKind = iota
	// TransportUDP runs all replicas in this process but exchanges every
	// message over real loopback UDP sockets, paying full serialization
	// and kernel costs (the paper's "traditional stack" regime).
	TransportUDP
)

// Config describes a cluster. The zero value is a usable 3-replica,
// 4-cores-per-replica, single-partition in-process deployment.
type Config struct {
	// Replicas per partition group; must be odd. Default 3 (f=1).
	Replicas int
	// Cores is the number of server threads per replica. Default 4.
	Cores int
	// Partitions splits the keyspace across independent replica groups
	// (distributed transactions, §5.2.4). Default 1.
	Partitions int

	// Shards and MaxShards configure the sharded deployment built by Open:
	// Shards replica groups initially own the hash-range shard map, and
	// MaxShards groups are provisioned in total, the headroom Admin.Split
	// grows into by moving half a shard's range onto an idle group.
	// Defaults: Shards 1, MaxShards = Shards. NewCluster ignores both (a
	// cluster built directly has no shard map); Open derives Partitions
	// from MaxShards and rejects a conflicting explicit Partitions.
	Shards    int
	MaxShards int

	// shardOwn, set only by Open, is the per-group ownership view shared
	// between a group's replicas: each replica checks incoming keys against
	// its group's current view and redirects what it does not own. The
	// array outlives any individual replica, so crash-recovered replicas
	// rejoin with the group's current (possibly post-split) view.
	shardOwn []*shardmap.Ownership

	// Transport selects the fabric. Default TransportInproc.
	Transport TransportKind
	// UDPHost/UDPBasePort place TransportUDP sockets. Defaults:
	// 127.0.0.1, 29000.
	UDPHost     string
	UDPBasePort int
	// UDPMaxClients is the client budget the UDP port map is validated
	// against: Validate fails with ErrPortMap if that many clients (plus
	// all replica and recovery slots) cannot fit the 16-bit port range.
	// Creating more clients than this is still caught, at NewClient time,
	// by the transport's own typed port checks. Default 64.
	UDPMaxClients int
	// UDPFlushDelay, when positive, lets UDP endpoints hold buffered
	// outgoing datagrams up to this long waiting for more to share a
	// sendmmsg with (a micro-Nagle for the batched syscall path). Zero
	// flushes on every send boundary. Only meaningful with TransportUDP.
	UDPFlushDelay time.Duration
	// UDPNoBatch forces the UDP transport onto its one-syscall-per-
	// datagram path even where sendmmsg/recvmmsg are available. It exists
	// so benchmarks can measure the per-message baseline; leave it off.
	UDPNoBatch bool

	// DropProb injects random message loss on the inproc transport, and
	// Delay adds constant per-message latency, for fault-tolerance tests.
	DropProb float64
	Delay    time.Duration

	// InprocServiceTime, when positive, caps every replica endpoint of the
	// inproc transport at one message per this much time (client reply
	// endpoints, bound with ListenDirect, are exempt) — a service-capacity model for benchmarks run on machines
	// with fewer CPUs than simulated server cores, where shard scaling
	// would otherwise be invisible. Leave zero outside such benchmarks.
	InprocServiceTime time.Duration

	// SharedTRecord replaces Meerkat's per-core transaction records with
	// one mutex-protected record per replica — the TAPIR-like baseline of
	// the paper's evaluation. For measurement, not production use.
	SharedTRecord bool
	// DisableFastPath forces all commits through the slow path (ablation).
	DisableFastPath bool
	// DisableReadOnlyFastPath forces read-only transactions through the
	// classic validated two-round commit instead of the one-round snapshot
	// path (ablation; see Txn.ReadOnly).
	DisableReadOnlyFastPath bool

	// CommitTimeout bounds each protocol round-trip wait; Retries bounds
	// resends. Defaults: 100ms, 10.
	CommitTimeout time.Duration
	Retries       int

	// BackoffBase and BackoffMax bound the capped exponential backoff with
	// full jitter that clients insert before protocol resends and between
	// Client.Run attempts: attempt k waits a uniform duration in
	// (0, min(BackoffBase<<k, BackoffMax)]. Defaults: 500µs, 50ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Faults, when non-nil, wraps the cluster's transport in the
	// deterministic fault-injection layer (internal/faultnet) running this
	// schedule: per-link drop/delay/reorder/duplicate rules, partitions,
	// and crash/restart black-holes triggered at global message counts.
	// Crash/restart events black-hole the node's traffic; pair them with
	// Cluster.FaultEvents to also stop and recover the real replica. The
	// plan must pass its Validate; NewCluster rejects the config otherwise.
	Faults *faultnet.Plan

	// SweepInterval enables replica-side coordinator-failure detection:
	// stalled transactions older than StaleAfter are finished by a backup
	// coordinator. Zero disables.
	SweepInterval time.Duration
	StaleAfter    time.Duration

	// CompactOnEpochChange trims finalized transaction records whenever an
	// epoch change runs (checkpointing, §5.3.1).
	CompactOnEpochChange bool

	// ClockSkew, if set, gives client i a static clock offset of
	// (i - clients/2) * ClockSkew, exercising the loose-synchronization
	// tolerance. Correctness never depends on it.
	ClockSkew time.Duration

	// Durability, when its DataDir is set, persists every replica's
	// committed state: per-core write-ahead logs with the configured
	// SyncPolicy, periodic snapshots, and crash-restart recovery
	// (local replay first, then a delta state transfer).
	Durability Durability

	// Seed makes load-balancing decisions reproducible.
	Seed int64

	// Obs, when non-nil, is the observability registry the cluster wires
	// through every component (replica cores, client coordinators, epoch
	// changes, transport and storage gauges). When nil, NewCluster creates
	// one; retrieve it with Cluster.Obs.
	Obs *obs.Registry
}

// Validate checks the configuration and normalizes it in place, applying the
// documented defaults to zero-valued fields:
//
//	Replicas 3 (must be odd), Cores 4, Partitions 1,
//	Transport inproc (UDPHost 127.0.0.1, UDPBasePort 29000 when UDP),
//	CommitTimeout 100ms, Retries 10, BackoffBase 500µs, BackoffMax 50ms,
//	and, with Durability.DataDir set: Sync batch, GroupCommitInterval 2ms,
//	SnapshotInterval 30s, MaxLogSegment 64MiB, DeltaMargin derived from the
//	protocol knobs (see deriveDeltaMargin; 10s with the other defaults).
//
// It rejects negative knobs, even replica counts, out-of-range fault
// probabilities, and malformed fault plans. NewCluster calls it, so explicit
// calls are needed only to validate a config without starting a cluster.
func (c *Config) Validate() error {
	if c.Replicas < 0 || c.Cores < 0 || c.Partitions < 0 || c.Retries < 0 ||
		c.Shards < 0 || c.MaxShards < 0 {
		return fmt.Errorf("meerkat: negative size in config %+v", *c)
	}
	if c.CommitTimeout < 0 || c.BackoffBase < 0 || c.BackoffMax < 0 ||
		c.SweepInterval < 0 || c.StaleAfter < 0 || c.Delay < 0 || c.InprocServiceTime < 0 {
		return errors.New("meerkat: negative duration in config")
	}
	if c.DropProb < 0 || c.DropProb > 1 {
		return fmt.Errorf("meerkat: DropProb %v out of [0,1]", c.DropProb)
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.Replicas%2 == 0 {
		return fmt.Errorf("meerkat: Replicas must be odd, got %d", c.Replicas)
	}
	if c.UDPHost == "" {
		c.UDPHost = "127.0.0.1"
	}
	if c.UDPBasePort == 0 {
		c.UDPBasePort = 29000
	}
	if c.UDPMaxClients == 0 {
		c.UDPMaxClients = 64
	}
	if c.Transport == TransportUDP {
		// Statically check the port map before anything binds: replica ids
		// must stay clear of the recovery-coordinator slots, and the
		// highest client address must fit 16 bits. The throwaway network
		// only does arithmetic here; no socket is created.
		probe := transport.NewUDP(c.UDPHost, c.UDPBasePort, c.udpCoresPerNode())
		if err := probe.ValidatePortMap(c.Partitions, c.Replicas, c.UDPMaxClients); err != nil {
			return fmt.Errorf("%w: %w", ErrPortMap, err)
		}
	}
	if c.CommitTimeout == 0 {
		c.CommitTimeout = 100 * time.Millisecond
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
	if c.BackoffMax < c.BackoffBase {
		return fmt.Errorf("meerkat: BackoffMax %v below BackoffBase %v", c.BackoffMax, c.BackoffBase)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Durability.validate(); err != nil {
		return err
	}
	if c.Durability.Enabled() && c.Durability.DeltaMargin == 0 {
		c.Durability.DeltaMargin = c.deriveDeltaMargin()
	}
	return nil
}

// validate checks and normalizes the durability options. Without a DataDir
// it only rejects nonsensical values (so a half-filled config fails fast).
func (d *Durability) validate() error {
	if d.GroupCommitInterval < 0 || d.DeltaMargin < 0 {
		return errors.New("meerkat: negative duration in Durability config")
	}
	if d.MaxLogSegment < 0 {
		return fmt.Errorf("meerkat: negative Durability.MaxLogSegment %d", d.MaxLogSegment)
	}
	if d.Sync != SyncBatch && d.Sync != SyncNone && d.Sync != SyncAlways {
		return fmt.Errorf("meerkat: unknown Durability.Sync policy %d", d.Sync)
	}
	if !d.Enabled() {
		return nil
	}
	if d.GroupCommitInterval == 0 {
		d.GroupCommitInterval = 2 * time.Millisecond
	}
	if d.SnapshotInterval == 0 {
		d.SnapshotInterval = 30 * time.Second
	}
	if d.MaxLogSegment == 0 {
		d.MaxLogSegment = 64 << 20
	}
	// DeltaMargin's default is derived from protocol knobs the Durability
	// struct cannot see; Config.Validate fills it after calling this.
	return nil
}

// deriveDeltaMargin bounds how long a commit's finalization can trail its
// timestamp assignment on a healthy group, so the recovering replica's
// TS-delta filter cannot miss it: the sweeper declares a coordinator dead
// after StaleAfter (default 5x SweepInterval), the original coordinator may
// have retried for (Retries+1) timeouts with backoff before that, recovery
// itself runs more rounds, and client clocks may disagree by ClockSkew. The
// sum is padded generously — the margin only sizes a state-transfer delta,
// so over-estimating costs bytes, never correctness — and floored at the
// long-standing 10s default, which already covers configs without a sweeper.
func (c *Config) deriveDeltaMargin() time.Duration {
	staleAfter := c.StaleAfter
	if staleAfter == 0 && c.SweepInterval > 0 {
		staleAfter = 5 * c.SweepInterval
	}
	skew := c.ClockSkew
	if skew < 0 {
		skew = -skew
	}
	m := 2*staleAfter +
		time.Duration(c.Retries+1)*c.CommitTimeout +
		time.Duration(c.Retries)*c.BackoffMax +
		30*c.CommitTimeout + // recovery rounds initiated by backup coordinators
		16*skew
	if m < 10*time.Second {
		m = 10 * time.Second
	}
	return m
}

func (c *Config) fill() error { return c.Validate() }

// udpCoresPerNode is the ports-per-node stride of the UDP port map: cores
// per node must also cover the highest client core index (1+Partitions).
func (c *Config) udpCoresPerNode() int { return maxInt(c.Cores, 2+c.Partitions) }

// Cluster is a running Meerkat deployment: Partitions replica groups of
// Replicas nodes each, plus the transport fabric connecting them to clients.
type Cluster struct {
	cfg  Config
	topo topo.Topology
	net  transport.Network
	inet *transport.Inproc // non-nil iff inproc transport
	unet *transport.UDP    // non-nil iff UDP transport
	fnet *faultnet.Network // non-nil iff cfg.Faults was set

	obs      *obs.Registry  // never nil after NewCluster
	recObs   *obs.Shard     // epoch-change recorder
	walSched *wal.Scheduler // shared group-commit driver (durable clusters)

	mu        sync.Mutex
	replicas  [][]*replica.Replica // [partition][index]
	epochs    []uint64             // per-partition epoch counters
	crashedAt map[[2]int]int64     // wall clock (UnixNano) of each CrashReplica
	nextCli   uint64
	closed    bool

	// bg tracks the post-recovery snapshots RecoverReplica leaves running;
	// Close waits for them before stopping replicas, so none writes into
	// a data directory after Close returns.
	bg sync.WaitGroup
}

// NewCluster starts a cluster per cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := topo.Topology{Partitions: cfg.Partitions, Replicas: cfg.Replicas, Cores: cfg.Cores}
	if !t.Validate() {
		return nil, fmt.Errorf("meerkat: invalid configuration %+v", cfg)
	}

	c := &Cluster{
		cfg: cfg, topo: t,
		epochs:    make([]uint64, cfg.Partitions),
		crashedAt: make(map[[2]int]int64),
	}
	c.obs = cfg.Obs
	if c.obs == nil {
		c.obs = obs.NewRegistry()
	}
	c.recObs = c.obs.NewShard()
	switch cfg.Transport {
	case TransportInproc:
		var delay func() time.Duration
		if cfg.Delay > 0 {
			d := cfg.Delay
			delay = func() time.Duration { return d }
		}
		c.inet = transport.NewInproc(transport.InprocConfig{
			DropProb:    cfg.DropProb,
			Delay:       delay,
			Seed:        cfg.Seed,
			ServiceTime: cfg.InprocServiceTime,
		})
		c.net = c.inet
	case TransportUDP:
		// One port per (node, core); cores per node must cover the
		// highest client core index (1+Partitions).
		c.unet = transport.NewUDP(cfg.UDPHost, cfg.UDPBasePort, cfg.udpCoresPerNode())
		c.unet.SetFlushDelay(cfg.UDPFlushDelay)
		c.unet.SetBatchDisabled(cfg.UDPNoBatch)
		c.net = c.unet
	default:
		return nil, fmt.Errorf("meerkat: unknown transport %d", cfg.Transport)
	}

	switch n := c.net.(type) {
	case *transport.Inproc:
		n.RegisterObs(c.obs)
	case *transport.UDP:
		n.RegisterObs(c.obs)
	}
	if cfg.Faults != nil {
		// The injector wraps the fabric: every send — replica and client
		// alike — passes through the fault schedule. Validate() already
		// vetted the plan, so Wrap cannot panic here.
		c.fnet = faultnet.Wrap(c.net, cfg.Faults)
		c.fnet.RegisterObs(c.obs)
		c.net = c.fnet
	}
	// Storage gauges sum over all live replica stores (each replica holds a
	// full copy, so totals scale with the replication factor by design).
	c.obs.RegisterGauge("vstore_keys", func() uint64 { k, _ := c.storeCounts(); return k })
	c.obs.RegisterGauge("vstore_versions", func() uint64 { _, v := c.storeCounts(); return v })
	c.obs.RegisterGauge("vstore_ops_merged", func() uint64 { m, _ := c.storeOpStats(); return m })
	c.obs.RegisterGauge("vstore_ops_recovered", func() uint64 { _, r := c.storeOpStats(); return r })

	if cfg.Durability.Enabled() {
		c.walSched = wal.NewScheduler(cfg.Durability.GroupCommitInterval)
	}
	for p := 0; p < cfg.Partitions; p++ {
		group := make([]*replica.Replica, cfg.Replicas)
		stores := make([]*vstore.Store, cfg.Replicas)
		wals := make([]*wal.Store, cfg.Replicas)
		if cfg.Durability.Enabled() {
			// Open (or create) every replica's durability directory and
			// replay whatever it holds: a whole-cluster restart comes back
			// with every committed transaction.
			replayed := false
			for r := 0; r < cfg.Replicas; r++ {
				w, recov, err := wal.Open(cfg.Durability.replicaDir(p, r), cfg.Cores, cfg.Durability.walOptions(c.walSched))
				if err != nil {
					for i := 0; i < r; i++ {
						wals[i].Close()
					}
					c.Close()
					return nil, err
				}
				wals[r] = w
				stores[r] = recov.Store
				replayed = replayed || recov.Records > 0 || recov.SnapshotKeys > 0
			}
			if replayed {
				// Reconcile the group before serving traffic. After a
				// non-graceful whole-cluster crash under SyncBatch each
				// replica lost a different unfsynced log suffix, so the
				// replayed stores diverge: an acknowledged write may exist
				// on one replica and not another, and single-replica reads
				// would return inconsistent values. The union merge is
				// sound because imports are idempotent and monotone (Thomas
				// rule for versions, max for rts): fold every store into
				// the first, then fan the union back out.
				for r := 1; r < cfg.Replicas; r++ {
					recovery.SyncStore(stores[0], stores[r])
				}
				for r := 1; r < cfg.Replicas; r++ {
					recovery.SyncStore(stores[r], stores[0])
				}
				// Make the reconciled state durable: keys merged from peers
				// exist only in memory until a snapshot covers them, and a
				// later lone crash would lose them again. Best-effort — on
				// failure the logs simply keep growing and the periodic
				// snapshotter retries.
				for r := 0; r < cfg.Replicas; r++ {
					wals[r].Snapshot(stores[r])
				}
			}
		}
		for r := 0; r < cfg.Replicas; r++ {
			rep, err := c.newReplica(p, r, stores[r], wals[r], false)
			if err != nil {
				for i := r; i < cfg.Replicas; i++ {
					if wals[i] != nil {
						wals[i].Close()
					}
				}
				for i := 0; i < r; i++ {
					group[i].Stop()
				}
				c.Close()
				return nil, err
			}
			group[r] = rep
		}
		c.replicas = append(c.replicas, group)
	}
	return c, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (c *Cluster) newReplica(p, r int, store *vstore.Store, w *wal.Store, recovering bool) (*replica.Replica, error) {
	var own *shardmap.Ownership
	if c.cfg.shardOwn != nil {
		own = c.cfg.shardOwn[p]
	}
	rep, err := replica.New(replica.Config{
		Topo:                 c.topo,
		Partition:            p,
		Index:                r,
		Net:                  c.net,
		Store:                store,
		WAL:                  w,
		Ownership:            own,
		SharedRecord:         c.cfg.SharedTRecord,
		SweepInterval:        c.cfg.SweepInterval,
		StaleAfter:           c.cfg.StaleAfter,
		CompactOnEpochChange: c.cfg.CompactOnEpochChange,
		Obs:                  c.obs,
		Recovering:           recovering,
	})
	if err != nil {
		return nil, err
	}
	if err := rep.Start(); err != nil {
		return nil, err
	}
	return rep, nil
}

// Load installs key=value on every replica, bypassing the transaction
// protocol. Use it to pre-load a database before serving traffic. With
// durability enabled the load is logged, so preloaded data survives
// restarts like committed writes do.
func (c *Cluster) Load(key string, value []byte) {
	c.loadPartition(c.topo.PartitionForKey(key), key, value)
}

// loadPartition is Load with the owning partition already decided — the
// sharded DB routes by shard map, the legacy path by static key hash.
func (c *Cluster) loadPartition(p int, key string, value []byte) {
	ts := timestamp.Timestamp{Time: 1, ClientID: 0}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rep := range c.replicas[p] {
		if rep != nil {
			rep.Load(key, value, ts)
		}
	}
}

// Close shuts the cluster down. With durability enabled it first drains each
// partition with an epoch change — the merge finalizes every transaction the
// group had acknowledged but not yet applied, writing it to the logs — and
// then stops every replica gracefully, which flushes and fsyncs all core
// logs. A durable cluster closed this way reopens with zero committed-
// transaction loss.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	reps := c.replicas
	c.mu.Unlock()
	c.bg.Wait()
	if c.cfg.Durability.Enabled() {
		for p := 0; p < c.cfg.Partitions; p++ {
			// Best-effort: without a quorum (mid-chaos shutdown) in-flight
			// transactions stay in-flight; committed state is already logged.
			c.EpochChange(p)
		}
	}
	for _, group := range reps {
		for _, rep := range group {
			if rep != nil {
				rep.Stop()
			}
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	if c.walSched != nil {
		// Replica stops flushed and closed every log; the shared group-commit
		// driver has no registrants left and can retire.
		c.walSched.Stop()
	}
}

// CrashReplica stops replica r of partition p, simulating a process crash:
// its endpoints close, in-flight messages to it are dropped, and — with
// durability enabled — its write-ahead logs are abandoned without a final
// flush, exactly as a killed process would leave them. The cluster keeps
// serving as long as a majority of each group survives (transactions fall
// back to the slow path once a fast quorum is unreachable).
func (c *Cluster) CrashReplica(p, r int) {
	c.mu.Lock()
	rep := c.replicas[p][r]
	c.replicas[p][r] = nil
	if rep != nil {
		// Stamp the crash instant: RecoverReplica hands it to donors as the
		// wall-clock delta bound (ship every key whose commit you applied
		// since), which catches commits finalized during the outage with
		// timestamps older than any TS margin.
		c.crashedAt[[2]int{p, r}] = time.Now().UnixNano()
	}
	c.mu.Unlock()
	if rep != nil {
		rep.Crash()
	}
}

// RecoverReplica brings replica r of partition p back. Without durability
// the replica restarts without state and copies the donor's whole committed
// store, per §5.3.1. With durability it first reopens its data directory and
// replays the local snapshot + logs, then fetches only the delta — keys the
// donor saw change after the replayed watermark (minus Durability.
// DeltaMargin, covering out-of-timestamp-order applies) plus keys whose
// commit the donor applied, by its wall clock, since just before the crash
// (covering sweeper/backup-coordinator outcomes whose timestamps are older
// than any margin). Either way the epoch change that follows reconciles
// every in-flight transaction, so the rejoined replica is exactly
// consistent with the group.
func (c *Cluster) RecoverReplica(p, r int) error {
	c.mu.Lock()
	if c.replicas[p][r] != nil {
		c.mu.Unlock()
		return errors.New("meerkat: replica is not crashed")
	}
	crashStamp := c.crashedAt[[2]int{p, r}]
	donor := -1
	for i, rep := range c.replicas[p] {
		if i != r && rep != nil {
			donor = i
			break
		}
	}
	c.mu.Unlock()
	if donor < 0 {
		return errors.New("meerkat: no live replica to recover from")
	}

	// Local replay first (durable clusters), then state transfer over the
	// wire (shard-paginated, delta-filtered); the epoch change below
	// reconciles any in-flight transactions.
	var store *vstore.Store
	var w *wal.Store
	var since timestamp.Timestamp
	var sinceWall int64
	if c.cfg.Durability.Enabled() {
		var recov *wal.Recovered
		var err error
		w, recov, err = wal.Open(c.cfg.Durability.replicaDir(p, r), c.cfg.Cores, c.cfg.Durability.walOptions(c.walSched))
		if err != nil {
			return err
		}
		store = recov.Store
		if margin := c.cfg.Durability.DeltaMargin.Nanoseconds(); recov.Watermark.Time > margin {
			since = timestamp.Timestamp{Time: recov.Watermark.Time - margin}
		}
		if crashStamp > 0 {
			// Second delta axis: donors also ship keys whose commit they
			// applied (their wall clock) since just before the crash. The
			// slack absorbs group-commit buffering around the crash instant
			// and inter-replica apply latency; over-shipping is only bytes.
			slack := 5*c.cfg.CommitTimeout + 10*c.cfg.Durability.GroupCommitInterval
			if slack < time.Second {
				slack = time.Second
			}
			sinceWall = crashStamp - slack.Nanoseconds()
		}
	} else {
		store = vstore.New(vstore.Config{})
	}
	if err := recovery.SyncStoreRemote(c.net, c.topo, p, donor, store, recovery.Options{
		Timeout:   c.cfg.CommitTimeout * 5,
		Since:     since,
		SinceWall: sinceWall,
	}); err != nil {
		if w != nil {
			w.Close()
		}
		return err
	}
	rep, err := c.newReplica(p, r, store, w, true)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return err
	}
	c.mu.Lock()
	c.replicas[p][r] = rep
	delete(c.crashedAt, [2]int{p, r})
	c.mu.Unlock()
	if err := c.EpochChange(p); err != nil {
		return err
	}
	if w != nil {
		// Best-effort snapshot: the delta just fetched lives only in memory
		// until a snapshot covers it; taking one now makes the recovery
		// itself durable (failure is fine — the next crash simply fetches
		// the delta again). Registered under mu, so a concurrent Close
		// either waits for it or never sees it started.
		c.mu.Lock()
		start := !c.closed
		if start {
			c.bg.Add(1)
		}
		c.mu.Unlock()
		if start {
			go func() {
				defer c.bg.Done()
				_ = w.Snapshot(rep.Store()) // best-effort, see above
			}()
		}
	}
	return nil
}

// EpochChange runs the epoch change protocol on partition p, pausing the
// group, merging trecords, and resuming. It is invoked automatically by
// RecoverReplica and may be called directly (e.g. to checkpoint).
func (c *Cluster) EpochChange(p int) error {
	c.mu.Lock()
	c.epochs[p]++
	epoch := c.epochs[p]
	c.mu.Unlock()
	_, err := recovery.RunEpochChange(c.net, c.topo, p, epoch, recovery.Options{
		Timeout: c.cfg.CommitTimeout * 5,
		Obs:     c.recObs,
	})
	return err
}

// Obs returns the cluster's observability registry. Snapshot it for
// programmatic metrics, or serve it over HTTP with obs.Handler / obs.Serve.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// storeCounts sums keys and committed versions across all live replica
// stores. Scrape path only.
func (c *Cluster) storeCounts() (keys, versions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, group := range c.replicas {
		for _, rep := range group {
			if rep == nil {
				continue
			}
			k, v := rep.Store().Counts()
			keys += k
			versions += v
		}
	}
	return
}

// storeOpStats sums commutative-op merge counters across all live replica
// stores. Scrape path only.
func (c *Cluster) storeOpStats() (merged, recovered uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, group := range c.replicas {
		for _, rep := range group {
			if rep == nil {
				continue
			}
			m, r := rep.Store().OpStats()
			merged += m
			recovered += r
		}
	}
	return
}

// replicaAt returns the live replica instance (tests, stats); nil if
// crashed.
func (c *Cluster) replicaAt(p, r int) *replica.Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[p][r]
}

// NetworkStats reports transport counters (inproc transport only).
func (c *Cluster) NetworkStats() (sent, delivered, dropped uint64) {
	if c.inet == nil {
		return
	}
	s := c.inet.Stats()
	return s.Sent.Load(), s.Delivered.Load(), s.Dropped.Load()
}

// UDPNetStats is a point-in-time aggregate of the UDP transport's
// socket-level counters. The syscall counters are what the batched transport
// amortizes: datagrams moved per send syscall is Sent/SendSyscalls.
type UDPNetStats struct {
	Sent         uint64 // datagrams handed to the kernel
	Delivered    uint64 // datagrams decoded and delivered
	Dropped      uint64 // local send errors + corrupt inbound datagrams
	SendSyscalls uint64 // sendmmsg/sendto calls
	RecvSyscalls uint64 // recvmmsg/recvfrom calls
}

// Syscalls returns total socket syscalls issued.
func (s UDPNetStats) Syscalls() uint64 { return s.SendSyscalls + s.RecvSyscalls }

// WALStats aggregates durability counters (record appends, fsyncs, bytes,
// segment rotations) across all live replicas; ok is false when durability
// is disabled. Fsyncs per committed transaction in a benchmark window is
// Syncs / committed count.
func (c *Cluster) WALStats() (s wal.Stats, ok bool) {
	if !c.cfg.Durability.Enabled() {
		return s, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, group := range c.replicas {
		for _, rep := range group {
			if rep == nil || rep.WAL() == nil {
				continue
			}
			st := rep.WAL().Stats()
			s.Appends += st.Appends
			s.Syncs += st.Syncs
			s.BytesWritten += st.BytesWritten
			s.Segments += st.Segments
			s.Failures += st.Failures
		}
	}
	return s, true
}

// UDPStats reports socket-level counters; ok is false unless the cluster
// runs on TransportUDP. Counters survive Cluster.Close, so post-run scrapes
// stay truthful.
func (c *Cluster) UDPStats() (s UDPNetStats, ok bool) {
	if c.unet == nil {
		return s, false
	}
	t := c.unet.Stats()
	return UDPNetStats{
		Sent:         t.Sent,
		Delivered:    t.Delivered,
		Dropped:      t.Dropped,
		SendSyscalls: t.SendCalls,
		RecvSyscalls: t.RecvCalls,
	}, true
}

// clientClock builds the clock for a new client, applying configured skew.
func (c *Cluster) clientClock(id uint64) clock.Clock {
	base := clock.NewReal()
	if c.cfg.ClockSkew == 0 {
		return base
	}
	offset := (int64(id) - 4) * int64(c.cfg.ClockSkew)
	return clock.NewSkewed(base, offset, 0)
}

// nodeOf maps (partition, replica index) to the transport node id, for
// tests that inject faults.
func (c *Cluster) nodeOf(p, r int) uint32 { return c.topo.ReplicaNode(p, r) }

// NodeOf maps (partition, replica index) to the transport node id — the id
// space fault plans (Config.Faults) address crashes, partitions, and link
// rules in.
func (c *Cluster) NodeOf(p, r int) uint32 { return c.nodeOf(p, r) }

// ReplicaOf inverts NodeOf: the (partition, replica index) behind a
// transport node id, for harnesses mapping fault events onto replica
// lifecycle calls. ok is false for ids that are not replica nodes.
func (c *Cluster) ReplicaOf(node uint32) (p, r int, ok bool) {
	for p = 0; p < c.cfg.Partitions; p++ {
		for r = 0; r < c.cfg.Replicas; r++ {
			if c.topo.ReplicaNode(p, r) == node {
				return p, r, true
			}
		}
	}
	return 0, 0, false
}

// FaultNetwork returns the fault-injection layer, or nil when the cluster
// runs without one (Config.Faults == nil).
func (c *Cluster) FaultNetwork() *faultnet.Network { return c.fnet }

// FaultEvents returns the channel carrying fired fault events, in firing
// order, or nil without a fault plan. A chaos harness consumes it to mirror
// OpCrash/OpRestart black-holes onto the real replica lifecycle
// (CrashReplica / RecoverReplica).
func (c *Cluster) FaultEvents() <-chan faultnet.Event {
	if c.fnet == nil {
		return nil
	}
	return c.fnet.Events()
}
