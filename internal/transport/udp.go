package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/message"
)

// Batching geometry shared by the Linux mmsg path and the portable fallback.
const (
	// sendRing is the maximum number of datagrams one sendmmsg moves; it
	// bounds the endpoint's pending-send buffer.
	sendRing = 32
	// recvRing is the number of datagrams one recvmmsg can drain.
	recvRing = 16
	// maxDatagram is the largest datagram the read loop accepts, and the
	// largest encode buffer a send slot retains across flushes.
	maxDatagram = 64 << 10
)

// Slot compaction bases for the UDP port map; see Port.
const (
	// recoverySlotBase is the first slot for per-partition recovery
	// coordinators (node ids >= 1<<15); replica node ids must stay below it.
	recoverySlotBase = 192
	// clientSlotBase is the first slot for clients (node ids >= 1<<16);
	// recovery-coordinator slots must stay below it.
	clientSlotBase = 256
)

// Typed port-map errors, so deployments can fail loudly at configuration
// time instead of binding (or sending to) the wrong socket.
var (
	// ErrPortRange means an address maps outside the 16-bit UDP port range.
	ErrPortRange = errors.New("transport: UDP port out of range")
	// ErrPortCollision means two distinct addresses compact onto the same
	// UDP port (e.g. a replica node id reaching into the recovery-
	// coordinator slot range).
	ErrPortCollision = errors.New("transport: UDP port map collision")
)

// UDP is a Network over real UDP sockets. Each (node, core) endpoint binds
// its own port — one socket per server thread, the software analogue of the
// paper's per-thread NIC send/receive queues steered by port number — and
// every message pays full binary serialization plus kernel socket costs.
// This is the stand-in for the paper's traditional Linux UDP stack baseline.
//
// Sends are batched: an endpoint buffers outgoing datagrams in a small ring
// and hands them to the kernel in one sendmmsg (Linux amd64/arm64; a
// WriteToUDP loop elsewhere), and the read loop drains inbound bursts with
// one recvmmsg into a ring of preallocated buffers. While an inbound burst
// is being delivered the endpoint is "corked": replies the handlers emit
// pile into the send ring and leave in a single syscall when the burst ends.
type UDP struct {
	host         string
	ip           net.IP // parsed once; per-send parsing is pure overhead
	basePort     int
	coresPerNode int
	flushDelay   time.Duration
	noBatch      bool

	// addrs caches resolved *net.UDPAddr per destination so the send path
	// does not rebuild (and re-allocate) the same sockaddr per message.
	// Entries are immutable once stored.
	addrs sync.Map // message.Addr -> *net.UDPAddr

	plat udpPlat // per-platform shared state (raw sockaddr cache on Linux)

	mu     sync.Mutex
	eps    []*udpEndpoint
	ports  map[int]message.Addr // bound port -> owning address
	closed bool
	final  UDPStats // counters folded in from endpoints at network Close
}

// NewUDP returns a UDP network on host (usually "127.0.0.1"). The port for
// address (node, core) is basePort + slot(node)*coresPerNode + core, so all
// processes sharing the same parameters agree on the port map.
func NewUDP(host string, basePort, coresPerNode int) *UDP {
	if coresPerNode <= 0 {
		coresPerNode = 128
	}
	return &UDP{
		host:         host,
		ip:           net.ParseIP(host),
		basePort:     basePort,
		coresPerNode: coresPerNode,
		ports:        make(map[int]message.Addr),
	}
}

// SetFlushDelay installs a coalescing window: instead of flushing on every
// Send/SendBatch boundary, an endpoint may hold buffered datagrams up to d
// waiting for more to share the syscall with (a micro-Nagle for the batched
// path). Zero restores flush-per-call. Must be called before Listen.
func (n *UDP) SetFlushDelay(d time.Duration) { n.flushDelay = d }

// SetBatchDisabled forces the portable one-syscall-per-datagram path even
// where sendmmsg/recvmmsg are available. It exists so benchmarks can measure
// the per-message baseline; production callers should leave batching on.
// Must be called before Listen.
func (n *UDP) SetBatchDisabled(v bool) { n.noBatch = v }

// udpAddr returns the cached sockaddr for dst, resolving it on first use.
func (n *UDP) udpAddr(dst message.Addr) *net.UDPAddr {
	if a, ok := n.addrs.Load(dst); ok {
		return a.(*net.UDPAddr)
	}
	a, _ := n.addrs.LoadOrStore(dst, &net.UDPAddr{IP: n.ip, Port: n.Port(dst)})
	return a.(*net.UDPAddr)
}

// Port returns the UDP port assigned to addr. Node ids are compacted into
// slots so the large client and recovery-coordinator id spaces (see
// internal/topo) still land in the 16-bit port range: replicas keep their
// ids, per-partition recovery coordinators (node >= 1<<15) map to slots from
// recoverySlotBase, and clients (node >= 1<<16) to slots from clientSlotBase.
func (n *UDP) Port(addr message.Addr) int {
	node := addr.Node
	var slot int
	switch {
	case node < 1<<15:
		slot = int(node)
	case node < 1<<16:
		slot = recoverySlotBase + int(node-1<<15)
	default:
		slot = clientSlotBase + int(node-1<<16)
	}
	return n.basePort + slot*n.coresPerNode + int(addr.Core)
}

// checkPort validates that addr's port lands inside the 16-bit range and
// returns it. It exists so Listen can fail with a typed error instead of
// binding port 70000 % 65536 or whatever the kernel would make of it.
func (n *UDP) checkPort(addr message.Addr) (int, error) {
	port := n.Port(addr)
	if port < 1 || port > 65535 {
		return 0, fmt.Errorf("%w: addr %+v maps to port %d (basePort=%d coresPerNode=%d)",
			ErrPortRange, addr, port, n.basePort, n.coresPerNode)
	}
	return port, nil
}

// ValidatePortMap statically checks that a deployment of the given shape —
// partitions×replicas replica nodes, one recovery coordinator per partition,
// and up to clients client nodes — maps every address it will bind onto a
// distinct in-range port. It returns ErrPortCollision when the compacted
// slot ranges overlap and ErrPortRange when the highest port overflows
// 16 bits, so misconfigurations surface before the first socket binds.
func (n *UDP) ValidatePortMap(partitions, replicas, clients int) error {
	if replicaNodes := partitions * replicas; replicaNodes > recoverySlotBase {
		return fmt.Errorf("%w: %d replica node ids overlap the recovery-coordinator slots starting at %d",
			ErrPortCollision, replicaNodes, recoverySlotBase)
	}
	if partitions > clientSlotBase-recoverySlotBase {
		return fmt.Errorf("%w: %d recovery-coordinator slots overlap the client slots starting at %d",
			ErrPortCollision, partitions, clientSlotBase)
	}
	if clients < 1 {
		clients = 1
	}
	// Highest port any of these addresses can bind: the last core of the
	// last client slot.
	maxPort := n.basePort + (clientSlotBase+clients-1)*n.coresPerNode + n.coresPerNode - 1
	if maxPort > 65535 {
		return fmt.Errorf("%w: %d clients at coresPerNode=%d reach port %d (basePort=%d)",
			ErrPortRange, clients, n.coresPerNode, maxPort, n.basePort)
	}
	return nil
}

// Listen implements Network.
func (n *UDP) Listen(addr message.Addr, h Handler) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if int(addr.Core) >= n.coresPerNode {
		return nil, fmt.Errorf("transport: core %d out of range (coresPerNode=%d)", addr.Core, n.coresPerNode)
	}
	port, err := n.checkPort(addr)
	if err != nil {
		return nil, err
	}
	if prev, ok := n.ports[port]; ok {
		if prev == addr {
			return nil, ErrAddrInUse
		}
		return nil, fmt.Errorf("%w: addr %+v and addr %+v both map to port %d",
			ErrPortCollision, prev, addr, port)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{
		IP:   n.ip,
		Port: port,
	})
	if err != nil {
		return nil, err
	}
	ep := &udpEndpoint{net: n, addr: addr, conn: conn, h: h, port: port}
	ep.pend = make([]sendSlot, 0, sendRing)
	ep.wireInit()
	go ep.readLoop()
	n.eps = append(n.eps, ep)
	n.ports[port] = addr
	return ep, nil
}

// ListenDirect implements Network. The read loop is already the socket
// poller, the goroutine a datagram must wake anyway, so a direct endpoint is
// an ordinary one.
func (n *UDP) ListenDirect(addr message.Addr, h Handler) (Endpoint, error) {
	return n.Listen(addr, h)
}

// releasePort frees ep's port slot so a restarted node (replica recovery)
// can rebind the same address.
func (n *UDP) releasePort(ep *udpEndpoint) {
	n.mu.Lock()
	if n.ports[ep.port] == ep.addr {
		delete(n.ports, ep.port)
	}
	n.mu.Unlock()
}

// Close implements Network. Endpoint counters are folded into a final
// snapshot before the endpoint list is dropped, so Stats stays truthful for
// post-run scrapes.
func (n *UDP) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	eps := n.eps
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	// Snapshot after closing so final flushes are counted.
	var s UDPStats
	for _, ep := range eps {
		s.add(ep)
	}
	n.mu.Lock()
	n.final = s
	n.eps = nil
	n.mu.Unlock()
	return nil
}

// UDPStats is a point-in-time aggregate of socket-level counters across all
// endpoints of a UDP network.
type UDPStats struct {
	Sent      uint64 // datagrams handed to the kernel
	Delivered uint64 // datagrams decoded and handed to handlers
	Dropped   uint64 // local send errors + corrupt inbound datagrams
	SendCalls uint64 // send syscalls (sendmmsg or per-datagram sendto)
	RecvCalls uint64 // receive syscalls (recvmmsg or per-datagram recvfrom)
}

// Syscalls returns the total number of socket syscalls the network issued.
func (s UDPStats) Syscalls() uint64 { return s.SendCalls + s.RecvCalls }

// DatagramsPerSend returns the average number of datagrams each send syscall
// moved — the batching factor the mmsg path achieves.
func (s UDPStats) DatagramsPerSend() float64 {
	if s.SendCalls == 0 {
		return 0
	}
	return float64(s.Sent) / float64(s.SendCalls)
}

// Sub returns s - prev field-wise, for interval measurements.
func (s UDPStats) Sub(prev UDPStats) UDPStats {
	return UDPStats{
		Sent:      s.Sent - prev.Sent,
		Delivered: s.Delivered - prev.Delivered,
		Dropped:   s.Dropped - prev.Dropped,
		SendCalls: s.SendCalls - prev.SendCalls,
		RecvCalls: s.RecvCalls - prev.RecvCalls,
	}
}

func (s *UDPStats) add(ep *udpEndpoint) {
	s.Sent += ep.sent.Load()
	s.Delivered += ep.delivered.Load()
	s.Dropped += ep.dropped.Load()
	s.SendCalls += ep.sendCalls.Load()
	s.RecvCalls += ep.recvCalls.Load()
}

// Stats sums the per-endpoint counters (plus the final snapshot of any
// already-closed network). Endpoints count into their own cache lines (each
// endpoint is its own heap object owned by one sender and one read loop), so
// the aggregation cost lands here, on the scrape path.
func (n *UDP) Stats() UDPStats {
	n.mu.Lock()
	s := n.final
	eps := n.eps
	n.mu.Unlock()
	for _, ep := range eps {
		s.add(ep)
	}
	return s
}

// sendSlot is one buffered outgoing datagram: the destination plus the
// encoded bytes. Slots keep their byte buffers across flushes, so the
// steady-state batched send path allocates nothing.
type sendSlot struct {
	dst message.Addr
	buf []byte
}

type udpEndpoint struct {
	net    *UDP
	addr   message.Addr
	conn   *net.UDPConn
	h      Handler
	port   int
	closed atomic.Bool

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	sendCalls atomic.Uint64
	recvCalls atomic.Uint64

	// mu guards the pending-send ring. The read loop corks the endpoint
	// while it delivers an inbound burst, so replies emitted by the
	// handlers coalesce into one flush when the burst ends.
	mu         sync.Mutex
	pend       []sendSlot
	corked     bool
	timerArmed bool
	flushTimer *time.Timer

	wire udpWire // per-platform mmsg state; zero value = fallback path
}

// Addr implements Endpoint.
func (ep *udpEndpoint) Addr() message.Addr { return ep.addr }

// Send implements Endpoint. The message is serialized into a ring slot
// immediately; unless the endpoint is corked (or a flush delay is
// configured) the datagram goes to the kernel before Send returns, exactly
// like the unbatched transport did.
func (ep *udpEndpoint) Send(dst message.Addr, m *message.Message) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	if m.Src != ep.addr {
		m.Src = ep.addr
	}
	ep.mu.Lock()
	ep.bufferLocked(dst, m)
	err := ep.sendPendingLocked()
	ep.mu.Unlock()
	return err
}

// SendBatch implements Endpoint: every message is serialized under one lock
// acquisition and the whole batch leaves in as few syscalls as the ring
// allows (one, for batches up to sendRing).
func (ep *udpEndpoint) SendBatch(batch []Outgoing) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	ep.mu.Lock()
	for i := range batch {
		if batch[i].M.Src != ep.addr {
			batch[i].M.Src = ep.addr
		}
		ep.bufferLocked(batch[i].Dst, batch[i].M)
	}
	err := ep.sendPendingLocked()
	ep.mu.Unlock()
	return err
}

// Flush implements Endpoint: force out anything buffered, regardless of cork
// state or flush delay.
func (ep *udpEndpoint) Flush() error {
	if ep.closed.Load() {
		return ErrClosed
	}
	ep.mu.Lock()
	err := ep.flushLocked()
	ep.mu.Unlock()
	return err
}

// bufferLocked serializes m into the next ring slot, flushing first if the
// ring is full. Callers hold ep.mu.
func (ep *udpEndpoint) bufferLocked(dst message.Addr, m *message.Message) {
	if len(ep.pend) == sendRing {
		ep.flushLocked()
	}
	i := len(ep.pend)
	ep.pend = ep.pend[:i+1]
	s := &ep.pend[i]
	s.dst = dst
	s.buf = message.Encode(s.buf[:0], m)
}

// sendPendingLocked flushes the ring unless something is holding it open: a
// cork (an inbound burst is being delivered; the uncork flushes) or a
// configured coalescing delay (the timer flushes). Callers hold ep.mu.
func (ep *udpEndpoint) sendPendingLocked() error {
	if len(ep.pend) == 0 {
		return nil
	}
	if ep.corked {
		return nil
	}
	if d := ep.net.flushDelay; d > 0 && len(ep.pend) < sendRing {
		ep.armTimerLocked(d)
		return nil
	}
	return ep.flushLocked()
}

// flushLocked hands every pending datagram to the kernel and resets the
// ring, trimming any slot buffer an oversized message grew. Callers hold
// ep.mu.
func (ep *udpEndpoint) flushLocked() error {
	if len(ep.pend) == 0 {
		return nil
	}
	err := ep.writeWire(ep.pend)
	for i := range ep.pend {
		if cap(ep.pend[i].buf) > maxDatagram {
			ep.pend[i].buf = nil
		}
	}
	ep.pend = ep.pend[:0]
	return err
}

// armTimerLocked schedules a flush d from now, reusing one timer so the
// coalescing path stays allocation-free after the first send. Callers hold
// ep.mu.
func (ep *udpEndpoint) armTimerLocked(d time.Duration) {
	if ep.timerArmed {
		return
	}
	ep.timerArmed = true
	if ep.flushTimer == nil {
		ep.flushTimer = time.AfterFunc(d, ep.timerFlush)
	} else {
		ep.flushTimer.Reset(d)
	}
}

func (ep *udpEndpoint) timerFlush() {
	ep.mu.Lock()
	ep.timerArmed = false
	if !ep.corked {
		ep.flushLocked()
	}
	ep.mu.Unlock()
}

// cork holds the send ring open: Sends buffer but do not flush. The read
// loop corks around each inbound burst so handler replies share syscalls.
func (ep *udpEndpoint) cork() {
	ep.mu.Lock()
	ep.corked = true
	ep.mu.Unlock()
}

// uncork releases the ring and flushes whatever the burst's handlers
// buffered (deferring to the coalescing timer when one is configured).
func (ep *udpEndpoint) uncork() {
	ep.mu.Lock()
	ep.corked = false
	ep.sendPendingLocked()
	ep.mu.Unlock()
}

// writeFallback is the portable one-syscall-per-datagram wire: exactly the
// pre-batching behavior, used where mmsg is unavailable or disabled.
func (ep *udpEndpoint) writeFallback(slots []sendSlot) error {
	var firstErr error
	for i := range slots {
		_, err := ep.conn.WriteToUDP(slots[i].buf, ep.net.udpAddr(slots[i].dst))
		ep.sendCalls.Add(1)
		if err != nil {
			// UDP is best-effort end to end; surface only local socket
			// faults.
			ep.dropped.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ep.sent.Add(1)
	}
	return firstErr
}

// readLoopFallback is the portable receive path: one recvfrom per datagram.
// The cork still wraps each delivery so a handler that fans out several
// replies hands them to the kernel in one batch on the mmsg path, and in
// order on this one.
func (ep *udpEndpoint) readLoopFallback() {
	buf := make([]byte, maxDatagram)
	for {
		nr, _, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		ep.recvCalls.Add(1)
		m, derr := message.Decode(buf[:nr])
		if derr != nil {
			ep.dropped.Add(1)
			continue // corrupt datagram: drop, like any UDP consumer
		}
		ep.delivered.Add(1)
		ep.cork()
		ep.h(m)
		ep.uncork()
	}
}

// Close implements Endpoint.
func (ep *udpEndpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	ep.mu.Lock()
	ep.flushLocked()
	if ep.flushTimer != nil {
		ep.flushTimer.Stop()
	}
	ep.mu.Unlock()
	ep.net.releasePort(ep)
	return ep.conn.Close()
}
