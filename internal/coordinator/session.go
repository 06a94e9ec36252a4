package coordinator

import (
	"fmt"

	"meerkat/internal/message"
	"meerkat/internal/topo"
	"meerkat/internal/transport"
)

// Worker-demux bit layout. A session multiplexes several logical clients
// ("workers") over one set of endpoints, so every reply must carry enough to
// route it back to the worker whose transaction it answers. Two existing
// fields already round-trip through the replicas untouched:
//
//   - transaction ids: replies to validate/accept/commit/coord-change carry
//     the TxnID, whose ClientID is the issuing worker's id. Worker i runs as
//     client (base | i<<workerIDShift), so the index is recoverable from the
//     id's high bits without widening any message.
//   - read sequence numbers: read and multi-read replies echo Seq. Worker i
//     seeds its readSeq at i<<readSeqShift, leaving 2^48 sequence numbers per
//     worker — centuries of reads — before streams could collide.
const (
	workerIDShift = 32 // worker index lives in ClientID bits [32, 48)
	readSeqShift  = 48 // worker index lives in read Seq bits [48, 64)

	// MaxWindow bounds a session's pipeline width: worker indices must fit
	// the bit fields above (and 2^16 in-flight transactions per socket is
	// far past any syscall-amortization gain).
	MaxWindow = 1 << 16
)

// Session multiplexes up to `window` concurrently outstanding transactions
// over ONE set of client sockets. A plain Coordinator is stop-and-wait: one
// transaction in flight per endpoint, so on the real-UDP transport the wire
// idles between round trips and every message costs its own syscalls. A
// Session binds the same endpoints a single coordinator would (one read
// endpoint plus one commit endpoint per partition) and hands them to
// `window` workers — each a full Coordinator driven by its own goroutine —
// demultiplexing replies by the worker index carried in transaction ids and
// read sequence numbers. Combined with the transport's batched sends, the
// pipelined workers fill sendmmsg/recvmmsg rings instead of moving one
// datagram per syscall.
//
// Each worker is single-goroutine exactly like a plain Coordinator; the
// Session itself has no locks on any hot path (the routing handlers read
// immutable state).
type Session struct {
	cfg     Config
	readEp  transport.Endpoint
	commit  []transport.Endpoint
	workers []*Coordinator
}

// NewSession binds one endpoint set on cfg.Net and builds window pipelined
// workers over it. cfg.ClientID must leave the worker-index bits clear (ids
// below 1<<32, which every id the public API hands out satisfies). Worker i
// operates as client id cfg.ClientID | i<<32, with derived seeds; cfg.Obs,
// when set, is shared by all workers (obs.Shard methods are atomic).
func NewSession(cfg Config, window int) (*Session, error) {
	cfg.fill()
	if !cfg.Topo.Validate() {
		return nil, fmt.Errorf("coordinator: invalid topology %+v", cfg.Topo)
	}
	if window < 1 {
		window = 1
	}
	if window > MaxWindow {
		return nil, fmt.Errorf("coordinator: session window %d exceeds %d", window, MaxWindow)
	}
	if cfg.ClientID >= 1<<workerIDShift {
		return nil, fmt.Errorf("coordinator: session client id %d overflows the worker-demux bits", cfg.ClientID)
	}

	s := &Session{cfg: cfg}
	depth := inboxDepth(cfg.Topo)
	// Shared broadcast-address table: workers never mutate it, so one copy
	// serves the whole pipeline.
	var groups [][]message.Addr
	for i := 0; i < window; i++ {
		wcfg := cfg
		wcfg.ClientID = cfg.ClientID | uint64(i)<<workerIDShift
		wcfg.Seed = cfg.Seed + int64(i)*0x9e3779b9
		w := newCore(wcfg)
		if groups == nil {
			groups = w.groups
		} else {
			w.groups = groups
		}
		w.shared = true
		w.readSeq = uint64(i) << readSeqShift
		w.readInbox = transport.NewInbox(depth)
		for p := 0; p < cfg.Topo.Partitions; p++ {
			w.commitIns = append(w.commitIns, transport.NewInbox(depth))
		}
		s.workers = append(s.workers, w)
	}

	base := cfg.Topo.ClientAddr(cfg.ClientID)
	ep, err := cfg.Net.ListenDirect(base, s.routeRead)
	if err != nil {
		return nil, err
	}
	s.readEp = ep
	for p := 0; p < cfg.Topo.Partitions; p++ {
		p := p
		ep, err := cfg.Net.ListenDirect(message.Addr{Node: base.Node, Core: uint32(1 + p)},
			func(m *message.Message) { s.routeCommit(p, m) })
		if err != nil {
			s.Close()
			return nil, err
		}
		s.commit = append(s.commit, ep)
	}
	for _, w := range s.workers {
		w.readEp = s.readEp
		w.commitEps = s.commit
	}
	return s, nil
}

// routeRead demultiplexes execution-phase replies (which echo the request's
// Seq) onto the issuing worker's read inbox. Like the routers below it never
// blocks and reads only immutable state, so the endpoints are bound with
// ListenDirect: a replica's reply lands in the worker's inbox in one hop.
func (s *Session) routeRead(m *message.Message) {
	if i := int(m.Seq >> readSeqShift); i < len(s.workers) {
		s.workers[i].readInbox.Handle(m)
		return
	}
	release(m)
}

// routeCommit demultiplexes partition p's commit-protocol replies. Multi-read
// replies ride the commit endpoints and carry Seq; everything else in the
// commit protocol carries the transaction id, whose ClientID holds the
// worker index.
func (s *Session) routeCommit(p int, m *message.Message) {
	var i int
	if m.Type == message.TypeMultiReadReply {
		i = int(m.Seq >> readSeqShift)
	} else {
		i = int(m.TID.ClientID >> workerIDShift)
	}
	if i < len(s.workers) {
		s.workers[i].commitIns[p].Handle(m)
		return
	}
	release(m)
}

// Window returns the session's pipeline width.
func (s *Session) Window() int { return len(s.workers) }

// Worker returns the i'th pipelined coordinator. Each worker is a full
// Coordinator — Begin/Commit/Run/ReadMany all work — but is single-goroutine
// like any other: drive each worker from its own goroutine.
func (s *Session) Worker(i int) *Coordinator { return s.workers[i] }

// Topology returns the topology the session was built for.
func (s *Session) Topology() topo.Topology { return s.cfg.Topo }

// Close releases the session's endpoints. Workers must be idle.
func (s *Session) Close() {
	if s.readEp != nil {
		s.readEp.Close()
	}
	for _, ep := range s.commit {
		ep.Close()
	}
}
