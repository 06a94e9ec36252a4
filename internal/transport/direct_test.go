package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meerkat/internal/message"
)

// TestInprocListenDirectDeliversOnSender checks the direct binding: the
// handler has run by the time Send returns (it runs on the sender's
// goroutine, with no queue in between), and binding starts no delivery
// goroutine.
func TestInprocListenDirectDeliversOnSender(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	const binds = 64
	var got [binds]atomic.Int64
	for i := 0; i < binds; i++ {
		if _, err := n.ListenDirect(message.Addr{Node: 1, Core: uint32(i)}, func(*message.Message) { got[i].Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated goroutines (timers, the runtime) may come and go; one
	// delivery goroutine per endpoint would add binds of them.
	if grew := runtime.NumGoroutine() - before; grew >= binds/2 {
		t.Fatalf("%d ListenDirect binds started %d goroutines", binds, grew)
	}

	for i := 0; i < binds; i++ {
		if err := src.Send(message.Addr{Node: 1, Core: uint32(i)}, &message.Message{Type: message.TypePut}); err != nil {
			t.Fatal(err)
		}
		if got[i].Load() != 1 {
			t.Fatalf("endpoint %d: handler had not run when Send returned", i)
		}
	}
	if d := n.Stats().Delivered.Load(); d != binds {
		t.Fatalf("Delivered = %d, want %d", d, binds)
	}
	if _, err := n.ListenDirect(message.Addr{Node: 1, Core: 0}, func(*message.Message) {}); err != ErrAddrInUse {
		t.Fatalf("rebinding a direct address: err = %v, want ErrAddrInUse", err)
	}
}

// TestInprocListenDirectConcurrentSenders runs many senders into one direct
// Inbox at once; under -race this checks that the send path (endpoint-table
// lookup, drop PRNG, handler) is safe without a delivery goroutine to
// serialize it.
func TestInprocListenDirectConcurrentSenders(t *testing.T) {
	n := NewInproc(InprocConfig{})
	defer n.Close()
	const senders, each = 8, 300
	in := NewInbox(senders * each)
	dst := message.Addr{Node: 1, Core: 0}
	if _, err := n.ListenDirect(dst, in.Handle); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Binding while others send also exercises the copy-on-write
			// endpoint table.
			ep, err := n.Listen(message.Addr{Node: 10 + uint32(s), Core: 0}, func(*message.Message) {})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				ep.Send(dst, &message.Message{Type: message.TypePut, Seq: uint64(s*each + i)})
			}
		}(s)
	}
	wg.Wait()
	if got := len(in.C); got != senders*each {
		t.Fatalf("inbox holds %d messages, want %d", got, senders*each)
	}
	seen := make(map[uint64]bool, senders*each)
	for len(in.C) > 0 {
		m := <-in.C
		if seen[m.Seq] {
			t.Fatalf("message %d delivered twice", m.Seq)
		}
		seen[m.Seq] = true
	}
}

// TestInprocListenDirectClosedDrops checks that a closed direct endpoint
// drops, both for senders that look it up afterwards and for a delayed
// message already in flight when it closed.
func TestInprocListenDirectClosedDrops(t *testing.T) {
	n := NewInproc(InprocConfig{Delay: func() time.Duration { return 20 * time.Millisecond }})
	defer n.Close()
	var got atomic.Int64
	dst := message.Addr{Node: 1, Core: 0}
	ep, err := n.ListenDirect(dst, func(*message.Message) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	src.Send(dst, &message.Message{Type: message.TypePut}) // in flight
	ep.Close()
	src.Send(dst, &message.Message{Type: message.TypePut}) // after close
	waitFor(t, "both drops", func() bool { return n.Stats().Dropped.Load() == 2 })
	if got.Load() != 0 {
		t.Fatalf("closed direct endpoint ran its handler %d times", got.Load())
	}
	if _, err := n.ListenDirect(dst, func(*message.Message) {}); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}
