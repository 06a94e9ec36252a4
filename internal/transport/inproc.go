package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/message"
)

// InprocConfig tunes the in-process network.
type InprocConfig struct {
	// QueueDepth is the per-endpoint receive queue length, the analogue of
	// a NIC receive ring. Sends to a full queue are dropped, as a NIC
	// would. Defaults to 8192.
	QueueDepth int
	// DropProb is the probability each message is silently dropped.
	DropProb float64
	// Delay, if non-nil, returns an extra delivery delay sampled per
	// message. Delayed messages may be reordered relative to later sends.
	Delay func() time.Duration
	// Seed seeds the drop-decision PRNGs so fault schedules are repeatable.
	// Each endpoint derives its own PRNG state as
	//
	//	mix64(uint64(Seed) ^ node<<32 ^ core)
	//
	// (mix64 is the splitmix64 finalizer), so drop decisions are
	// deterministic given Seed and each endpoint's send sequence, without
	// any cross-endpoint synchronization.
	Seed int64
	// Batch is the maximum number of queued messages a delivery goroutine
	// drains per wakeup, the analogue of polling a NIC ring in bursts:
	// under load the handler loop runs without re-entering the scheduler
	// between messages. Defaults to 32; 1 disables batching.
	Batch int
	// ServiceTime, when positive, makes each delivery goroutine sleep
	// messages*ServiceTime after handling every drained burst — a fixed
	// per-message service-capacity model (one endpoint sustains at most
	// 1/ServiceTime messages per second). Benchmarks on machines with fewer
	// CPUs than simulated server cores use it to measure capacity scaling
	// (adding shards adds serving endpoints) instead of raw CPU contention.
	// Endpoints bound by ListenDirect (client reply inboxes) have no
	// delivery goroutine and are never throttled. Zero disables the model.
	ServiceTime time.Duration
}

// InprocStats counts network activity. Read with the atomic Load methods.
type InprocStats struct {
	Sent      atomic.Uint64
	Delivered atomic.Uint64
	Dropped   atomic.Uint64 // random drops + full queues + filtered links
}

// Inproc is an in-process Network. An endpoint bound by Listen owns a
// delivery queue drained by a dedicated goroutine, modelling one server
// thread polling one NIC queue. An endpoint bound by ListenDirect has no
// queue and no goroutine: the sender runs its handler — for a client, that
// handler pushes the reply straight into the waiting worker's Inbox, so a
// reply wakes one goroutine, not two. Sends are direct hand-offs with no
// serialization, the stand-in for the paper's eRPC kernel-bypass stack.
//
// There is no shared mutable state on the send path — per the paper's
// zero-coordination discipline, concurrent senders contend only on the
// destination's channel. The endpoint table is an immutable map behind an
// atomic pointer: a send loads it once, and Listen/Close publish a copy.
type Inproc struct {
	cfg   InprocConfig
	stats InprocStats

	mu        sync.Mutex // serializes endpoint-table writers
	endpoints atomic.Pointer[map[message.Addr]*inprocEndpoint]
	closed    bool

	// filter, when set, decides per (src, dst) whether a message may pass.
	// It implements partitions and crashed nodes.
	filter atomic.Pointer[func(src, dst message.Addr) bool]
}

// NewInproc returns an in-process network with the given configuration.
func NewInproc(cfg InprocConfig) *Inproc {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8192
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	n := &Inproc{cfg: cfg}
	n.endpoints.Store(&map[message.Addr]*inprocEndpoint{})
	return n
}

// updateEndpoints publishes a copy of the endpoint table with fn applied.
// Callers hold n.mu.
func (n *Inproc) updateEndpoints(fn func(map[message.Addr]*inprocEndpoint)) {
	old := *n.endpoints.Load()
	next := make(map[message.Addr]*inprocEndpoint, len(old)+1)
	for a, ep := range old {
		next[a] = ep
	}
	fn(next)
	n.endpoints.Store(&next)
}

// Stats returns the network's counters.
func (n *Inproc) Stats() *InprocStats { return &n.stats }

// SetLinkFilter installs f as the per-link admission check: messages from
// src to dst are dropped when f(src, dst) is false. Pass nil to clear.
// Safe to call while the network is in use.
func (n *Inproc) SetLinkFilter(f func(src, dst message.Addr) bool) {
	if f == nil {
		n.filter.Store(nil)
		return
	}
	n.filter.Store(&f)
}

// Isolate drops all traffic to and from the given nodes, simulating crashed
// or partitioned replicas. It replaces any previous filter.
func (n *Inproc) Isolate(nodes ...uint32) {
	down := make(map[uint32]bool, len(nodes))
	for _, id := range nodes {
		down[id] = true
	}
	n.SetLinkFilter(func(src, dst message.Addr) bool {
		return !down[src.Node] && !down[dst.Node]
	})
}

// Heal removes any link filter, restoring full connectivity.
func (n *Inproc) Heal() { n.SetLinkFilter(nil) }

// Listen implements Network.
func (n *Inproc) Listen(addr message.Addr, h Handler) (Endpoint, error) {
	return n.listen(addr, h, false)
}

// ListenDirect implements Network: the endpoint gets no queue and no
// delivery goroutine, and every message runs h on the goroutine that
// delivers it — the sender's, or a delay timer's.
func (n *Inproc) ListenDirect(addr message.Addr, h Handler) (Endpoint, error) {
	return n.listen(addr, h, true)
}

func (n *Inproc) listen(addr message.Addr, h Handler, direct bool) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := (*n.endpoints.Load())[addr]; ok {
		return nil, ErrAddrInUse
	}
	ep := &inprocEndpoint{net: n, addr: addr, h: h, direct: direct}
	if !direct {
		ep.ch = make(chan *message.Message, n.cfg.QueueDepth)
		ep.quit = make(chan struct{})
	}
	ep.rng.state.Store(mix64(uint64(n.cfg.Seed) ^ uint64(addr.Node)<<32 ^ uint64(addr.Core)))
	n.updateEndpoints(func(m map[message.Addr]*inprocEndpoint) { m[addr] = ep })
	if !direct {
		go ep.run()
	}
	return ep, nil
}

// Close implements Network.
func (n *Inproc) Close() error {
	n.mu.Lock()
	n.closed = true
	eps := *n.endpoints.Load()
	n.endpoints.Store(&map[message.Addr]*inprocEndpoint{})
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// dispatch routes m from the sending endpoint to dst, applying drops,
// filters, and delays. Drop decisions come from the sender's own PRNG, so
// concurrent senders never serialize on a shared RNG lock.
func (n *Inproc) dispatch(src *inprocEndpoint, dst message.Addr, m *message.Message) error {
	n.stats.Sent.Add(1)

	if f := n.filter.Load(); f != nil && !(*f)(src.addr, dst) {
		n.stats.Dropped.Add(1)
		return nil // silently dropped, like a real network
	}
	if n.cfg.DropProb > 0 && src.rng.float64() < n.cfg.DropProb {
		n.stats.Dropped.Add(1)
		return nil
	}

	ep, ok := (*n.endpoints.Load())[dst]
	if !ok {
		n.stats.Dropped.Add(1)
		return nil // unreachable destination: a silent drop, not an error
	}

	if n.cfg.Delay != nil {
		if d := n.cfg.Delay(); d > 0 {
			time.AfterFunc(d, func() { ep.enqueue(m, &n.stats) })
			return nil
		}
	}
	ep.enqueue(m, &n.stats)
	return nil
}

// dropRNG is a lock-free splitmix64 PRNG: each draw is one atomic add plus
// the finalizer, so concurrent sends on one endpoint neither race nor
// serialize. For a single-goroutine sender the sequence is exactly
// splitmix64(seed), making fault schedules repeatable given InprocConfig.Seed.
type dropRNG struct {
	state atomic.Uint64
}

// mix64 is the splitmix64 finalizer, used both to derive endpoint seeds and
// to whiten each draw.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// float64 returns a uniform draw in [0, 1).
func (r *dropRNG) float64() float64 {
	x := mix64(r.state.Add(0x9e3779b97f4a7c15))
	return float64(x>>11) / (1 << 53)
}

// SplitMix64 is a tiny single-goroutine PRNG for replica/core selection on
// the coordinator hot path: no lock, no heap allocation, and the same
// deterministic sequence per seed as the endpoint drop PRNGs (it is the same
// splitmix64 stream, unsynchronized). The zero value is a valid seed.
type SplitMix64 struct {
	state uint64
}

// SeedSplitMix64 returns a SplitMix64 whose stream is derived from seed via
// the splitmix64 finalizer, matching how endpoints derive their drop PRNGs.
func SeedSplitMix64(seed uint64) SplitMix64 {
	return SplitMix64{state: mix64(seed)}
}

// Uint64 returns the next draw.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Intn returns a draw in [0, n). n must be positive.
func (r *SplitMix64) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

type inprocEndpoint struct {
	net    *Inproc
	addr   message.Addr
	h      Handler
	direct bool                  // bound by ListenDirect: no ch, quit, or run
	ch     chan *message.Message // nil when direct
	quit   chan struct{}         // nil when direct
	closed atomic.Bool
	rng    dropRNG // per-endpoint drop PRNG; see InprocConfig.Seed
}

// run is the delivery loop: one blocking receive per wakeup, then a
// non-blocking drain of up to Batch-1 more queued messages. Bursts are
// handled without bouncing through the scheduler per message — the software
// analogue of NIC-ring burst polling.
func (ep *inprocEndpoint) run() {
	batch := ep.net.cfg.Batch
	service := ep.net.cfg.ServiceTime
	for {
		select {
		case <-ep.quit:
			return
		case m := <-ep.ch:
			ep.h(m)
			handled := 1
		drain:
			for i := 1; i < batch; i++ {
				select {
				case m := <-ep.ch:
					ep.h(m)
					handled++
				default:
					break drain
				}
			}
			if service > 0 {
				// Capacity model: this endpoint spent handled*service of
				// simulated server time on the burst (see ServiceTime).
				time.Sleep(time.Duration(handled) * service)
			}
		}
	}
}

func (ep *inprocEndpoint) enqueue(m *message.Message, stats *InprocStats) {
	if ep.closed.Load() {
		stats.Dropped.Add(1)
		return
	}
	if ep.direct {
		stats.Delivered.Add(1)
		ep.h(m)
		return
	}
	select {
	case ep.ch <- m:
		stats.Delivered.Add(1)
	default:
		stats.Dropped.Add(1) // receive ring overflow
	}
}

// Addr implements Endpoint.
func (ep *inprocEndpoint) Addr() message.Addr { return ep.addr }

// Send implements Endpoint.
func (ep *inprocEndpoint) Send(dst message.Addr, m *message.Message) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	if m.Src != ep.addr {
		m.Src = ep.addr
	}
	return ep.net.dispatch(ep, dst, m)
}

// SendBatch implements Endpoint. A send here is already a direct channel
// hand-off with no per-message boundary cost to amortize, so the batch maps
// onto N dispatches; the receive side still drains bursts Batch messages per
// wakeup (see run), which is where inproc's batching lives.
func (ep *inprocEndpoint) SendBatch(batch []Outgoing) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	// Stamp every message before dispatching any: a message shared by
	// several destinations is being read by the first receiver already.
	for i := range batch {
		if batch[i].M.Src != ep.addr {
			batch[i].M.Src = ep.addr
		}
	}
	for i := range batch {
		if err := ep.net.dispatch(ep, batch[i].Dst, batch[i].M); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Endpoint. Inproc buffers nothing on the send side.
func (ep *inprocEndpoint) Flush() error { return nil }

// Close implements Endpoint.
func (ep *inprocEndpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	if !ep.direct {
		close(ep.quit)
	}
	n := ep.net
	n.mu.Lock()
	if (*n.endpoints.Load())[ep.addr] == ep {
		n.updateEndpoints(func(m map[message.Addr]*inprocEndpoint) { delete(m, ep.addr) })
	}
	n.mu.Unlock()
	return nil
}

// Inbox is a Handler that buffers inbound messages into a channel, for
// callers (clients, coordinators) that consume replies synchronously. Handle
// never blocks and is safe for concurrent use, so an Inbox may be bound with
// ListenDirect.
type Inbox struct {
	C chan *message.Message
}

// NewInbox returns an Inbox with the given buffer depth.
func NewInbox(depth int) *Inbox {
	if depth <= 0 {
		depth = 256
	}
	return &Inbox{C: make(chan *message.Message, depth)}
}

// Handle implements Handler. Messages beyond the buffer are dropped, which
// the retry layer above absorbs.
func (in *Inbox) Handle(m *message.Message) {
	select {
	case in.C <- m:
	default:
	}
}

// Drain discards buffered messages without blocking, so a fresh request phase
// does not mistake a stale reply (from a timed-out earlier attempt) for its
// own. Drained messages go back to the message pool, so bind an Inbox that
// is drained only where every inbound message was sent to it alone (replies,
// never a shared broadcast): its reader owns what it takes from C.
func (in *Inbox) Drain() {
	for {
		select {
		case m := <-in.C:
			m.Disown()
			message.ReleaseMessage(m)
		default:
			return
		}
	}
}
