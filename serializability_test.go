package meerkat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"meerkat/internal/checker"
	"meerkat/internal/faultnet"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// stressConfig drives one randomized serializability stress run.
type stressConfig struct {
	cluster  Config
	clients  int
	txnsEach int
	keys     int
	// readOnlyFrac of transactions are pure reads; the rest are RMWs over
	// 1-3 keys.
	seed int64
	// ops mixes server-side increments into the traffic: roughly a third
	// of non-read-only transactions carry an Add on a random key alongside
	// their reads and writes, so the checker's value replay covers
	// commutative merges interleaved with plain OCC transactions.
	ops bool
	// roSnapshot routes the read-only transactions through the snapshot
	// fast path (Txn.ReadOnly): they commit with zero validation rounds
	// when confirmed and demote when not, and either way their reads join
	// the history for the checker to verify against the concurrent writes.
	roSnapshot bool
	// window, when positive, drives the clients as the pipelined workers
	// of one Session of that width (one socket set, replies demultiplexed
	// by worker) instead of as independent clients.
	window int
}

// runSerializabilityStress hammers the cluster with random multi-key
// transactions from concurrent clients and checks the committed history is
// one-copy serializable in timestamp order.
func runSerializabilityStress(t *testing.T, cfg stressConfig) (*checker.History, *Cluster) {
	t.Helper()
	c := newTestCluster(t, cfg.cluster)
	initial := make(map[string]timestamp.Timestamp, cfg.keys)
	loadTS := timestamp.Timestamp{Time: 1, ClientID: 0}
	for i := 0; i < cfg.keys; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Load(k, []byte("0"))
		initial[k] = loadTS
	}

	hist := checker.New()
	for i := 0; i < cfg.keys; i++ {
		hist.SetInitialValue(fmt.Sprintf("k%d", i), []byte("0"))
	}
	clients := make([]*Client, 0, cfg.clients)
	if cfg.window > 0 {
		for len(clients) < cfg.clients {
			s, err := c.NewSession(cfg.window)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			t.Cleanup(s.Close)
			clients = append(clients, s.Clients()...)
		}
		clients = clients[:cfg.clients]
	} else {
		for i := 0; i < cfg.clients; i++ {
			clients = append(clients, newTestClient(t, c))
		}
	}
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < cfg.txnsEach; j++ {
				txn := cl.Begin()
				nKeys := 1 + rng.Intn(3)
				readOnly := rng.Intn(4) == 0
				if readOnly && cfg.roSnapshot {
					txn.ReadOnly()
				}
				ok := true
				seen := map[int]bool{}
				for k := 0; k < nKeys; k++ {
					ki := rng.Intn(cfg.keys)
					if seen[ki] {
						continue
					}
					seen[ki] = true
					key := fmt.Sprintf("k%d", ki)
					if _, err := txn.Read(key); err != nil {
						ok = false
						break
					}
					if !readOnly {
						txn.Write(key, []byte(fmt.Sprintf("c%d-%d", seed, j)))
					}
				}
				if !ok {
					continue
				}
				if cfg.ops && !readOnly && rng.Intn(3) == 0 {
					txn.Add(fmt.Sprintf("k%d", rng.Intn(cfg.keys)), 1)
				}
				if committed, err := txn.Commit(); err == nil && committed {
					hist.Add(checker.CommittedTxn{
						ID: txn.inner.ID(), TS: txn.inner.Timestamp(),
						ReadSet: txn.inner.ReadSet(), WriteSet: txn.inner.WriteSet(),
						OpSet:    txn.inner.OpSet(),
						ReadOnly: txn.CommittedReadOnly(),
					})
				}
			}
		}(cl, cfg.seed+int64(i))
	}
	wg.Wait()

	if hist.Len() == 0 {
		t.Fatal("nothing committed")
	}
	if dups := hist.CheckUniqueTimestamps(); dups != nil {
		t.Fatalf("duplicate commit timestamps: %v", dups)
	}
	if violations := hist.Check(initial); violations != nil {
		for _, v := range violations {
			t.Error(v)
		}
	}
	t.Logf("committed %d transactions", hist.Len())
	return hist, c
}

func TestSerializabilityMultiPartition(t *testing.T) {
	// Random multi-key transactions routinely span the three partitions;
	// the timestamp-order replay catches any fractured atomic commit.
	runSerializabilityStress(t, stressConfig{
		cluster:  Config{Partitions: 3, Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:  6,
		txnsEach: 40,
		keys:     8,
		seed:     100,
	})
}

func TestSerializabilityUnderReordering(t *testing.T) {
	// Randomized per-message delays reorder deliveries; the protocol must
	// stay serializable (timestamps, not arrival order, decide).
	runSerializabilityStress(t, stressConfig{
		cluster: Config{
			Cores:         2,
			Delay:         500 * time.Microsecond, // base; jitter comes from scheduling
			CommitTimeout: 50 * time.Millisecond,
			Retries:       20,
		},
		clients:  6,
		txnsEach: 30,
		keys:     6,
		seed:     200,
	})
}

func TestSerializabilityUnderDuplication(t *testing.T) {
	// Every link duplicates and delays a share of its messages, so replies
	// arrive twice, late, and out of order at pipelined session workers
	// that release each reply to the message pool as soon as they have read
	// it. A duplicate sharing recycled state with its original, or a stale
	// reply mistaken for a fresh one, shows up as a checker violation (or,
	// under -race, as a data race).
	hist, c := runSerializabilityStress(t, stressConfig{
		cluster: Config{
			Partitions: 2, Cores: 2,
			CommitTimeout: 50 * time.Millisecond, Retries: 20,
			Faults: &faultnet.Plan{Seed: 600, Rules: []faultnet.Rule{{
				SrcNode: faultnet.Any, DstNode: faultnet.Any, SrcCore: faultnet.Any, DstCore: faultnet.Any,
				DupProb: 0.3, DelayProb: 0.3, Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
			}}},
		},
		clients:    8,
		txnsEach:   40,
		keys:       4,
		seed:       600,
		ops:        true,
		roSnapshot: true,
		window:     4,
	})
	if dups := c.FaultNetwork().Stats().Duplicated.Load(); dups == 0 {
		t.Fatal("no message was duplicated; the stress exercised nothing")
	}
	t.Logf("%d commits, %d duplicated messages", hist.Len(), c.FaultNetwork().Stats().Duplicated.Load())
}

func TestSerializabilityHighContention(t *testing.T) {
	// Two keys, many writers: worst case for OCC. Lots of aborts are fine;
	// any serializability violation is not.
	hist, _ := runSerializabilityStress(t, stressConfig{
		cluster:  Config{Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:  8,
		txnsEach: 50,
		keys:     2,
		seed:     300,
	})
	_ = hist
}

func TestSerializabilityMixedOps(t *testing.T) {
	// Commutative increments interleaved with plain RMWs and writes across
	// two partitions. The checker's value replay recomputes every merge in
	// timestamp order and verifies each read's value hash, so a merge that
	// rewrote a version some reader had already observed would be flagged.
	runSerializabilityStress(t, stressConfig{
		cluster:  Config{Partitions: 2, Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:  6,
		txnsEach: 40,
		keys:     4,
		seed:     400,
		ops:      true,
	})
}

func TestSerializabilityReadOnlySnapshots(t *testing.T) {
	// Snapshot read-only transactions racing plain writes AND commutative
	// increments across two partitions. The dangerous interleavings are (a)
	// an RO snapshot straddling a prepared-but-undecided writer — the per-key
	// rts guard must either show the write or prevent it from committing at
	// or below the snapshot — and (b) an increment merging below a version an
	// RO transaction already read, which the checker's value replay catches
	// by hash. RO transactions that demote still land in the history as
	// validated reads, so every path is checked.
	hist, c := runSerializabilityStress(t, stressConfig{
		cluster:    Config{Partitions: 2, Cores: 2, CommitTimeout: 50 * time.Millisecond},
		clients:    8,
		txnsEach:   50,
		keys:       4,
		seed:       500,
		ops:        true,
		roSnapshot: true,
	})
	snap := c.Obs().Snapshot()
	if snap.Counters[obs.TxnCommitRO] == 0 {
		t.Fatal("no transaction committed on the read-only fast path; the stress exercised nothing")
	}
	t.Logf("ro commits %d, fallbacks %d, of %d total",
		snap.Counters[obs.TxnCommitRO], snap.Counters[obs.ROFallback], hist.Len())
}

func TestClientStats(t *testing.T) {
	c := newTestCluster(t, Config{})
	cl := newTestClient(t, c)
	for i := 0; i < 5; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	committed, _ := cl.Stats()
	if committed < 5 {
		t.Fatalf("committed = %d, want >= 5", committed)
	}
}
