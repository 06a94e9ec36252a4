// Package pbclient is the client for the two primary-backup baselines
// (KuaFu++ and Meerkat-PB). It performs Meerkat-style execution-phase reads
// against any replica (all four systems serve GETs from all replicas, §6.2)
// and submits the whole transaction to the primary for validation.
//
// For Meerkat-PB the client also proposes the transaction timestamp from its
// local clock (the primary merely validates at that timestamp); for KuaFu++
// the primary orders transactions itself with its shared counter.
package pbclient

import (
	"errors"
	"math/rand"
	"time"

	"meerkat/internal/clock"
	"meerkat/internal/message"
	"meerkat/internal/timestamp"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// ErrTimeout mirrors the coordinator package's timeout error.
var ErrTimeout = errors.New("pbclient: timed out, outcome unknown")

// Config parameterizes a client.
type Config struct {
	Topo     topo.Topology
	ClientID uint64
	Net      transport.Network
	Clock    clock.Clock

	// ClientTimestamps selects Meerkat-PB behaviour: the client proposes
	// the commit timestamp. When false (KuaFu++), the primary orders.
	ClientTimestamps bool

	Timeout time.Duration
	Retries int
	Seed    int64
}

// Client executes transactions against a primary-backup group. Not safe for
// concurrent use.
type Client struct {
	cfg Config
	gen *timestamp.Generator
	rng *rand.Rand
	ep  transport.Endpoint
	in  *transport.Inbox
	seq uint64
}

// New binds the client's endpoint.
func New(cfg Config) (*Client, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 100 * time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ClientID + 1)
	}
	c := &Client{
		cfg: cfg,
		gen: timestamp.NewGenerator(cfg.ClientID, cfg.Clock.Now),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		in:  transport.NewInbox(256),
	}
	ep, err := cfg.Net.ListenDirect(cfg.Topo.ClientAddr(cfg.ClientID), c.in.Handle)
	if err != nil {
		return nil, err
	}
	c.ep = ep
	return c, nil
}

// Close releases the client's endpoint.
func (c *Client) Close() { c.ep.Close() }

func (c *Client) drain() {
	for {
		select {
		case <-c.in.C:
		default:
			return
		}
	}
}

// Read fetches the latest committed version of key from a uniformly chosen
// replica core.
func (c *Client) Read(key string) (value []byte, version timestamp.Timestamp, ok bool, err error) {
	c.seq++
	seq := c.seq
	c.drain()
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		r := c.rng.Intn(c.cfg.Topo.Replicas)
		core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
		c.ep.Send(c.cfg.Topo.ReplicaAddr(0, r, core), &message.Message{
			Type: message.TypeRead, Key: key, Seq: seq,
		})
		deadline := time.NewTimer(c.cfg.Timeout)
		for {
			select {
			case m := <-c.in.C:
				if m.Type != message.TypeReadReply || m.Seq != seq {
					continue
				}
				deadline.Stop()
				return m.Value, m.TS, m.OK, nil
			case <-deadline.C:
			}
			break
		}
	}
	return nil, timestamp.Timestamp{}, false, ErrTimeout
}

// Txn buffers a transaction's read and write sets client-side.
type Txn struct {
	c        *Client
	reads    []message.ReadSetEntry
	readVals [][]byte
	writes   []message.WriteSetEntry
	writeIdx map[string]int
	readIdx  map[string]int
}

// Begin starts a transaction.
func (c *Client) Begin() *Txn {
	return &Txn{c: c, writeIdx: make(map[string]int), readIdx: make(map[string]int)}
}

// Read returns key's value within the transaction (read-your-writes).
func (t *Txn) Read(key string) ([]byte, error) {
	if i, ok := t.writeIdx[key]; ok {
		return t.writes[i].Value, nil
	}
	if i, ok := t.readIdx[key]; ok {
		return t.readVals[i], nil
	}
	val, ver, _, err := t.c.Read(key)
	if err != nil {
		return nil, err
	}
	t.readIdx[key] = len(t.reads)
	t.reads = append(t.reads, message.ReadSetEntry{Key: key, WTS: ver, VHash: message.HashValue(val)})
	t.readVals = append(t.readVals, val)
	return val, nil
}

// ReadMany reads a batch of keys with the same snapshot semantics as per-key
// Read, returning values index-aligned with keys. The primary-backup
// baselines have no batched read message — their execution phase is not what
// the comparison studies — so this is a plain sequential loop kept only for
// interface parity with the Meerkat client.
func (t *Txn) ReadMany(keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := t.Read(k)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// Write buffers a write.
func (t *Txn) Write(key string, value []byte) {
	if i, ok := t.writeIdx[key]; ok {
		t.writes[i].Value = value
		return
	}
	t.writeIdx[key] = len(t.writes)
	t.writes = append(t.writes, message.WriteSetEntry{Key: key, Value: value})
}

// Commit submits the transaction to the primary and waits for its decision.
func (t *Txn) Commit() (bool, error) {
	c := t.c
	tid := c.gen.NextID()
	var ts timestamp.Timestamp
	if c.cfg.ClientTimestamps {
		ts = c.gen.NextTimestamp()
	}
	// Pin one core for the transaction: Meerkat-PB's record partitioning
	// and KuaFu++'s pending-completion tracking both rely on retries
	// reaching the same core.
	core := uint32(c.rng.Intn(c.cfg.Topo.Cores))
	primary := c.cfg.Topo.ReplicaAddr(0, 0, core)
	c.drain()

	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		c.ep.Send(primary, &message.Message{
			Type: message.TypePBSubmit,
			Txn:  message.Txn{ID: tid, ReadSet: t.reads, WriteSet: t.writes},
			TS:   ts, CoreID: core,
		})
		deadline := time.NewTimer(c.cfg.Timeout)
		for {
			select {
			case m := <-c.in.C:
				if m.Type != message.TypePBReply || m.TID != tid {
					continue
				}
				deadline.Stop()
				return m.OK, nil
			case <-deadline.C:
			}
			break
		}
	}
	return false, ErrTimeout
}
