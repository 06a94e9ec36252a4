package coordinator

import (
	"bytes"
	"context"
	"errors"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/obs"
	"meerkat/internal/timestamp"
)

// This file implements the client half of the read-only fast path: snapshot
// reads that commit with zero validation rounds.
//
// A read-only transaction picks a snapshot timestamp s from the client's
// clock and sends one snapshot multi-read (TS = s) per touched partition to
// roQuorum replicas of the partition, picked as a random rotation of the
// group. The same request is hedged to the rest of the group when every
// replica asked has answered without settling, or when BackoffBase passes
// without settlement (a slow or crashed replica); retries go to every
// replica. Confirmation never depends on which replicas were asked: the
// rule below counts confirmed replies, wherever they came from. Each
// replica answers all keys
// at s and, in the same per-key critical section, raises the key's read
// timestamp to s, so nothing that has not validated there yet can ever
// commit at or below s. A reply is *confirmed* when its Watermark equals s:
// no prepared-but-undecided transaction sits at or below s on any requested
// key at that replica.
//
// Safety argument (see DESIGN.md "Read-only fast path" for the full
// version): any transaction T with timestamp ts <= s that commits — now or
// later, on the fast path, slow path, or through recovery — must hold
// VALIDATED-OK records at more replicas than can sit outside the confirmed
// set M. The pigeonhole member X in the intersection either (a) applied T
// already, so X's answers reflect it; (b) held T prepared-but-undecided, so
// X's watermark was below s and X was not confirmed — contradiction; or (c)
// validated T after serving the snapshot, which the rts guard forbids
// (ValidateWrite rejects ts < rts = s, and ts == s is impossible because s
// carries this client's unique id). The required |M| is Replicas-ceil(f/2):
// the smallest recovery rule that can resurrect a commit needs ceil(f/2)+1
// VALIDATED-OK records (DecideOutcome rule 4 and the epoch-change merge),
// and n-|M| must stay below that. For the default 3-replica topology this
// is just a majority (2 of 3).
//
// Values are merged across confirmed replies per key: the newest version
// wins. A plain write at the newest timestamp is final by construction
// (lower confirmed replies are benign lag: the write committed, they just
// have not applied it). An op-derived version is not: ops merging below a
// version re-materialize its value in place, so two replicas can hold the
// same WTS with different bytes, or one can be missing a merged op
// entirely. Op-derived results therefore settle only if every confirmed
// reply agrees exactly (same WTS, same bytes); anything else retries and
// eventually demotes to the classic validated path. The residual risk — all
// confirmed replies agreeing on coincidentally equal wrong bytes — is
// exactly the strength of the value-hash check the classic path already
// relies on (see message.ReadSetEntry).

// errROUnconfirmed reports that a snapshot read could not assemble enough
// confirmed, settled replies within its attempt budget. The caller retries
// at a rounded-down snapshot or demotes to the classic validated path.
var errROUnconfirmed = errors.New("coordinator: snapshot not confirmed")

// roAttempts bounds snapshot-read rounds per partition before giving up.
// The fast path is an optimization with a sound fallback, so the budget is
// deliberately tiny compared to cfg.Retries.
const roAttempts = 3

// roQuorum returns the confirmed-reply quorum the fast path needs per
// partition: Replicas - ceil(f/2), so that any transaction holding enough
// VALIDATED-OK records to ever commit (>= ceil(f/2)+1, recovery rule 4)
// must hold one inside the confirmed set.
func (c *Coordinator) roQuorum() int {
	f := c.cfg.Topo.F()
	return c.cfg.Topo.Replicas - (f+1)/2
}

// roKeyState accumulates one key's answers across confirmed replies.
type roKeyState struct {
	seen  int
	res   message.ReadResult
	mixed bool // confirmed replies disagree at the same version
	below bool // some confirmed reply is strictly older than res
}

// merge folds one confirmed reply's answer into the state.
func (s *roKeyState) merge(r *message.ReadResult) {
	if s.seen == 0 {
		s.seen = 1
		s.res = *r
		return
	}
	s.seen++
	switch {
	case r.OK == s.res.OK && r.WTS == s.res.WTS:
		if !bytes.Equal(r.Value, s.res.Value) {
			s.mixed = true // same version, different materialization
		}
	case r.OK && (!s.res.OK || s.res.WTS.Less(r.WTS)):
		s.below = true // previous best is now known to lag
		s.res = *r
	default:
		s.below = true // r lags the best
	}
}

// settled reports whether the key's merged answer is final with respect to
// the confirmed replies seen so far. Plain writes settle on the newest
// version; op-derived versions settle only on exact agreement.
func (s *roKeyState) settled() bool {
	if s.seen == 0 || s.mixed {
		return false
	}
	if !s.res.OK || s.res.Op == message.OpNone {
		return true
	}
	return !s.below
}

// roSent records where a partition's current snapshot request went, so a
// hedge can extend the same request to the replicas not yet asked.
type roSent struct {
	m     *message.Message // the request, shared by every destination
	core  uint32           // core addressed on each replica
	start int              // rotation offset into the group
	asked int              // replicas asked so far, in rotation order
}

// sendSnapshotRead sends one snapshot multi-read for partition p at snap to
// count replicas (a uniformly chosen core on each), taken in order from a
// random rotation of the group so the load spreads evenly.
func (c *Coordinator) sendSnapshotRead(p int, keys []string, snap timestamp.Timestamp, seq uint64, count int) {
	st := &c.roSent[p]
	st.m = &message.Message{Type: message.TypeMultiRead, Keys: keys, TS: snap, Seq: seq, MapVersion: c.mapVersion()}
	st.core = uint32(c.rng.Intn(c.cfg.Topo.Cores))
	st.start = c.rng.Intn(c.cfg.Topo.Replicas)
	st.asked = 0
	c.askSnapshotRead(p, count)
}

// askSnapshotRead extends partition p's current snapshot request along its
// rotation until upto replicas have been asked.
func (c *Coordinator) askSnapshotRead(p int, upto int) {
	st := &c.roSent[p]
	group := c.group(p, st.core)
	dsts := c.roDsts[:0]
	for ; st.asked < upto; st.asked++ {
		dsts = append(dsts, group[(st.start+st.asked)%len(group)])
	}
	c.roDsts = dsts
	c.roOuts = sendTo(c.commitEps[p], dsts, st.m, c.roOuts)
}

// snapshotReadCtx reads keys at snapshot timestamp snap: one snapshot
// multi-read round per touched partition, each requiring roQuorum confirmed
// replies whose merged answers settle. Results are index-aligned with keys
// in the scratch reused by the next read operation. minW is the lowest
// watermark observed across all replies (snap when none was lower) — the
// round-down hint on failure. The only errors are errROUnconfirmed and
// context/timeout errors from waitBudget.
func (c *Coordinator) snapshotReadCtx(ctx context.Context, keys []string, snap timestamp.Timestamp) ([]message.ReadResult, timestamp.Timestamp, error) {
	minW := snap
	if len(keys) == 0 {
		return nil, minW, nil
	}
	nparts := c.cfg.Topo.Partitions
	n := c.cfg.Topo.Replicas
	quorum := c.roQuorum()

	// Group keys by partition, exactly as ReadManyCtx does (shared scratch;
	// the two paths never run concurrently on one coordinator). The grouped
	// keys ride in a request shared by several replicas, which none of them
	// releases, so unlike ReadManyCtx's they are allocated fresh.
	grouped := make([]string, len(keys))
	off, origIdx := c.groupByPartition(keys, grouped)

	if cap(c.readRes) < len(keys) {
		c.readRes = make([]message.ReadResult, len(keys))
	}
	out := c.readRes[:len(keys)]
	if cap(c.roKeys) < len(keys) {
		c.roKeys = make([]roKeyState, len(keys))
	}
	state := c.roKeys[:len(keys)]
	if len(c.roSent) < nparts {
		c.roSent = make([]roSent, nparts)
	}

	c.readSeq++
	seq := c.readSeq
	// Fire every partition before collecting any reply, as in ReadManyCtx.
	for p := 0; p < nparts; p++ {
		if off[p+1] == off[p] {
			continue
		}
		c.commitIns[p].Drain()
		c.sendSnapshotRead(p, grouped[off[p]:off[p+1]], snap, seq, quorum)
	}

	ok := true
	for p := 0; p < nparts && ok; p++ {
		want := off[p+1] - off[p]
		if want == 0 {
			continue
		}
		in := c.commitIns[p]
		pseq := seq
		pstate := state[off[p]:off[p+1]]
		settledP := false
		for attempt := 0; attempt < roAttempts && !settledP; attempt++ {
			if attempt > 0 {
				c.obs.Inc(obs.ROReadRetry)
				sleep(ctx, backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt-1, &c.rng), &c.rt)
				in.Drain()
				c.readSeq++
				pseq = c.readSeq
				c.sendSnapshotRead(p, grouped[off[p]:off[p+1]], snap, pseq, n)
			}
			// Every attempt starts from scratch: a stale reply from an
			// earlier attempt at the same snapshot must not poison the
			// settlement flags.
			for j := range pstate {
				pstate[j] = roKeyState{}
			}
			budget, berr := c.waitBudget(ctx)
			if berr != nil {
				return nil, minW, berr
			}
			var seen uint64
			replied, confirmed := 0, 0
			sent := &c.roSent[p]
			var hedge <-chan time.Time
			if sent.asked < n {
				hedge = c.hedgeT.arm(c.cfg.BackoffBase)
			}
			deadline := c.rt.arm(budget)
		collect:
			for {
				var m *message.Message
				select {
				case m = <-in.C:
				default:
					select {
					case m = <-in.C:
					case <-hedge:
						hedge = nil
						c.obs.Inc(obs.ROHedge)
						c.askSnapshotRead(p, n)
						continue
					case <-ctx.Done():
						break collect
					case <-deadline:
						break collect
					}
				}
				if m.Type != message.TypeMultiReadReply || m.Seq != pseq {
					release(m)
					continue
				}
				if m.WrongShard {
					release(m)
					// The replica no longer owns some requested key and, by
					// design, refused before touching its store — a sealed
					// copy must never raise read timestamps for a snapshot it
					// cannot vouch for. Refresh and re-route.
					c.obs.Inc(obs.TxnWrongShard)
					c.noteRedirect()
					return nil, minW, ErrWrongShard
				}
				if len(m.Reads) != want || m.ReplicaID >= 64 || seen&(1<<m.ReplicaID) != 0 {
					release(m)
					continue
				}
				seen |= 1 << m.ReplicaID
				replied++
				if m.Watermark.Less(minW) {
					minW = m.Watermark
				}
				confirmedNow := m.Watermark == snap
				if confirmedNow {
					confirmed++
					for j := range m.Reads {
						pstate[j].merge(&m.Reads[j])
					}
				}
				release(m)
				if confirmedNow && confirmed >= quorum {
					settledP = true
					for j := range pstate {
						if !pstate[j].settled() {
							settledP = false
							break
						}
					}
					if settledP {
						break collect
					}
				}
				if replied == sent.asked {
					if replied == n {
						break collect // everyone answered; not settled, retry
					}
					// Everyone asked answered without settling: ask the
					// rest of the group within this attempt.
					hedge = nil
					c.obs.Inc(obs.ROHedge)
					c.askSnapshotRead(p, n)
				}
			}
		}
		if !settledP {
			ok = false
			break
		}
		for j := range pstate {
			out[origIdx[off[p]+j]] = pstate[j].res
		}
	}
	if !ok {
		return nil, minW, errROUnconfirmed
	}
	return out, minW, nil
}

// snapshotBegin runs the first snapshot operation of a read-only
// transaction: it picks a fresh snapshot timestamp, and on an unconfirmed
// round makes one retry at the rounded-down watermark the replies
// advertised — provided it stays above lastTS, so one session's reads never
// travel backwards past its own commits. If a reply's watermark was Zero,
// it instead tries up to roAttempts fresh snapshots: the first fetch fixes
// nothing yet, so it may move forward. It returns the merged results and
// the snapshot timestamp that settled.
func (c *Coordinator) snapshotBegin(ctx context.Context, keys []string) ([]message.ReadResult, timestamp.Timestamp, error) {
	s := c.gen.NextTimestamp()
	res, minW, err := c.snapshotReadCtx(ctx, keys, s)
	if err == nil {
		return res, s, nil
	}
	if errors.Is(err, errROUnconfirmed) && c.lastTS.Less(minW) && minW.Less(s) && !minW.IsZero() {
		c.obs.Inc(obs.RORoundDown)
		if res, _, err2 := c.snapshotReadCtx(ctx, keys, minW); err2 == nil {
			return res, minW, nil
		}
	}
	for i := 0; i < roAttempts && errors.Is(err, errROUnconfirmed) && minW.IsZero(); i++ {
		// Some replica could not answer at s at all: newer writes trimmed
		// its history below s (or it is recovering). An older snapshot is
		// no better, but the first fetch may still move forward.
		c.obs.Inc(obs.ROResnapshot)
		s = c.gen.NextTimestamp()
		if res, minW, err = c.snapshotReadCtx(ctx, keys, s); err == nil {
			return res, s, nil
		}
	}
	return nil, timestamp.Timestamp{}, err
}

// ReadOnly declares the transaction read-only, routing its reads through the
// snapshot fast path: all reads are served at one snapshot timestamp, and —
// if every touched partition confirms the snapshot — Commit succeeds locally
// with zero validation rounds and zero messages. Call it before the first
// read. The declaration is advisory, not a straitjacket: a marked
// transaction that goes on to write, or whose snapshot cannot be confirmed,
// demotes to the classic validated path (the snapshot reads join the read
// set and validate like any others).
func (t *Txn) ReadOnly() {
	t.ro = true
	if len(t.reads) > 0 || len(t.writes) > 0 || len(t.ops) > 0 || t.c.cfg.DisableReadOnlyFastPath {
		return // too late, or ablated: commit classically
	}
	t.roViable = true
}

// snapshotFetch serves keys for a read-only-marked transaction via the
// snapshot path. The first call fixes the transaction's snapshot timestamp;
// later calls must confirm at exactly that timestamp (reads at two
// different snapshots would not be one consistent cut). On failure the
// transaction demotes: roViable is cleared and the caller re-reads through
// the classic path. The bool reports whether the snapshot path served the
// keys; a non-nil error is a hard context/timeout failure.
func (t *Txn) snapshotFetch(ctx context.Context, keys []string) ([]message.ReadResult, bool, error) {
	c := t.c
	var (
		res []message.ReadResult
		err error
	)
	if t.snapTS.IsZero() {
		var s timestamp.Timestamp
		res, s, err = c.snapshotBegin(ctx, keys)
		if err == nil {
			t.snapTS = s
			return res, true, nil
		}
	} else {
		res, _, err = c.snapshotReadCtx(ctx, keys, t.snapTS)
		if err == nil {
			return res, true, nil
		}
	}
	if !errors.Is(err, errROUnconfirmed) {
		return nil, false, err
	}
	c.obs.Inc(obs.ROFallback)
	t.roViable = false
	return nil, false, nil
}

// SnapshotRead performs a one-round strongly-consistent read of key: the
// value is serializable with respect to every committed transaction, like a
// validated read-only transaction, but costs a single snapshot round on the
// fast path. On an unconfirmed snapshot it demotes to the classic validated
// read. ok is false for a key that has never been written.
func (c *Coordinator) SnapshotRead(key string) ([]byte, timestamp.Timestamp, bool, error) {
	return c.SnapshotReadCtx(context.Background(), key)
}

// SnapshotReadCtx is SnapshotRead under a context.
func (c *Coordinator) SnapshotReadCtx(ctx context.Context, key string) ([]byte, timestamp.Timestamp, bool, error) {
	if !c.cfg.DisableReadOnlyFastPath {
		c.ro1[0] = key
		res, s, err := c.snapshotBegin(ctx, c.ro1[:])
		if err == nil {
			if c.lastTS.Less(s) {
				c.lastTS = s
			}
			c.obs.Inc(obs.TxnCommitRO)
			return res[0].Value, res[0].WTS, res[0].OK, nil
		}
		if errors.Is(err, errROUnconfirmed) {
			c.obs.Inc(obs.ROFallback)
		} else if !errors.Is(err, ErrWrongShard) {
			return nil, timestamp.Timestamp{}, false, err
		}
		// A wrong-shard redirect falls through too: the classic path's Run
		// loop re-routes with the refreshed map and retries.
	}
	// Classic path: a validated read-only transaction (read round plus
	// validation round), retried until it commits.
	var (
		val []byte
		ver timestamp.Timestamp
	)
	err := c.Run(ctx, func(t *Txn) error {
		v, rerr := t.ReadCtx(ctx, key)
		if rerr != nil {
			return rerr
		}
		val, ver = v, t.reads[0].WTS
		return nil
	})
	if err != nil {
		return nil, timestamp.Timestamp{}, false, err
	}
	return val, ver, !ver.IsZero(), nil
}
