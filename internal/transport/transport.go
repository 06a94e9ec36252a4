// Package transport delivers protocol messages between nodes and cores.
//
// It provides two implementations of the same interface:
//
//   - Inproc: an in-process network with one delivery queue per (node, core)
//     endpoint, standing in for the paper's eRPC kernel-bypass stack. A send
//     is a direct hand-off into the destination core's queue — no
//     serialization, no syscalls — and a reply to a client endpoint is
//     handed straight to the waiting worker's Inbox (ListenDirect), so
//     per-message cost is low enough to expose application-level
//     coordination bottlenecks, exactly the regime Figure 1 of the paper
//     demonstrates.
//
//   - UDP: a real loopback UDP transport on stdlib net, standing in for the
//     paper's traditional Linux UDP stack. Messages pay full binary
//     serialization and kernel socket costs.
//
// Core-level addressing reproduces the paper's NIC flow steering: the
// coordinator picks a core id for each transaction and every message for
// that transaction is delivered to that core's queue, keeping the trecord
// partition single-core-private.
package transport

import (
	"errors"

	"meerkat/internal/message"
)

// Handler processes one inbound message. On an endpoint bound by Listen the
// handler runs on the endpoint's dedicated delivery goroutine — the analogue
// of a server thread polling its NIC receive queue — so handlers for one core
// never run concurrently with each other. On an endpoint bound by
// ListenDirect it may run on any goroutine, concurrently with itself.
//
// A message sent to one destination alone belongs to that handler, which may
// release it to the message pool once done with it; a message shared by
// several destinations (see SendBatch) is read-only and never released.
// DESIGN.md §7 lists which message kinds are which.
type Handler func(m *message.Message)

// Outgoing pairs one message with its destination, for batched sends.
type Outgoing struct {
	Dst message.Addr
	M   *message.Message
}

// Endpoint is a bound (node, core) address that can send messages.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() message.Addr
	// Send delivers m to the endpoint at dst, asynchronously and
	// unreliably: the message may be dropped, delayed, or reordered, per
	// the network's fault configuration (or the whims of a real kernel).
	// The transport stamps m.Src before delivery, writing it only when it
	// differs: one message may go to several destinations (see SendBatch),
	// and a receiver may already be reading it. Callers must not mutate m
	// after Send returns, and receivers must not mutate inbound messages. A transport may briefly coalesce a Send with
	// neighbouring sends (see SendBatch); Flush forces anything buffered
	// onto the wire.
	Send(dst message.Addr, m *message.Message) error
	// SendBatch sends every message in batch, amortizing per-boundary
	// costs (syscalls on a real wire) across the batch where the
	// transport supports it. The messages are consumed during the call:
	// the transport either serializes or hands them off before
	// returning, so the caller may reuse the batch slice immediately —
	// but, as with Send, must never mutate the messages themselves
	// afterwards. One message may appear in several elements; every
	// destination then receives that same pointer. Equivalent to calling
	// Send once per element; the same delivery guarantees (none) apply.
	SendBatch(batch []Outgoing) error
	// Flush forces out anything the transport has buffered but not yet
	// put on the wire. Transports that buffer nothing return nil
	// immediately. Send/SendBatch self-flush when their internal ring
	// fills, so Flush is a latency bound, not a correctness requirement —
	// except where a transport is configured with an explicit
	// coalescing delay.
	Flush() error
	// Close unbinds the endpoint and stops its delivery goroutine.
	Close() error
}

// Network creates endpoints sharing one message fabric.
type Network interface {
	// Listen binds addr and dispatches inbound messages to h, one at a
	// time, from a delivery goroutine the endpoint owns.
	Listen(addr message.Addr, h Handler) (Endpoint, error)
	// ListenDirect binds addr for a handler that never blocks and is safe
	// to call concurrently — typically Inbox.Handle, or a router that
	// pushes into one of several Inboxes. A transport may then run h on
	// whichever goroutine delivers the message (the sender's, for
	// Inproc), saving a goroutine hop per message. Transports without
	// that shortcut treat it as Listen.
	ListenDirect(addr message.Addr, h Handler) (Endpoint, error)
	// Close shuts down the network and all endpoints.
	Close() error
}

// Errors shared by the implementations.
var (
	ErrClosed    = errors.New("transport: closed")
	ErrAddrInUse = errors.New("transport: address already bound")
	ErrNoRoute   = errors.New("transport: no such destination")
)
