package transport

import (
	"net"
	"testing"

	"meerkat/internal/message"
)

// The batched send path must stay allocation-free in steady state: encode
// into retained ring-slot buffers, prebuilt syscall closures, cached
// sockaddrs. These gates hold on both the Linux sendmmsg path and the
// portable fallback (the ring machinery is shared; only the final write
// differs), so they run everywhere and keep non-Linux ports honest too.

func TestInprocSendBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n := NewInproc(InprocConfig{})
	defer n.Close()
	dst := message.Addr{Node: 1, Core: 0}
	if _, err := n.Listen(dst, func(*message.Message) {}); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	batch := makeAllocBatch(dst)
	send := func() {
		if err := src.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm queues
	if allocs := testing.AllocsPerRun(200, send); allocs > 0 {
		t.Fatalf("inproc SendBatch allocates %.1f times per call, want 0", allocs)
	}
}

func TestUDPSendBatchAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	n := NewUDP("127.0.0.1", 28950, 8)
	defer n.Close()
	// The destination is a bare socket that never reads: AllocsPerRun
	// counts every goroutine's mallocs, and a transport endpoint here would
	// decode the datagrams inside the measured window. Unread datagrams
	// overflow its receive buffer and are dropped by the kernel.
	dst := message.Addr{Node: 1, Core: 0}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: n.Port(dst)})
	if err != nil {
		t.Skipf("cannot bind UDP socket: %v", err)
	}
	defer sink.Close()
	src, err := n.Listen(message.Addr{Node: 0, Core: 0}, func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	batch := makeAllocBatch(dst)
	send := func() {
		if err := src.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm ring buffers and the sockaddr cache
	if allocs := testing.AllocsPerRun(200, send); allocs > 0 {
		t.Fatalf("UDP SendBatch allocates %.1f times per call, want 0", allocs)
	}
}

// makeAllocBatch builds a reusable batch shaped like a commit fan-out: a few
// small messages to one destination.
func makeAllocBatch(dst message.Addr) []Outgoing {
	batch := make([]Outgoing, 3)
	for i := range batch {
		batch[i] = Outgoing{Dst: dst, M: &message.Message{
			Type: message.TypePut, Seq: uint64(i), Key: "alloc-gate", Value: []byte("v"),
		}}
	}
	return batch
}
