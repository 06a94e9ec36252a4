package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/transport"
	"meerkat/internal/workload"
)

// Fig1 reproduces the paper's Figure 1 micro-benchmark: a PUT-only
// key-value server measured on a kernel-bypass-class transport (inproc) and
// on a traditional kernel UDP stack, with and without an artificial
// cross-core bottleneck (a shared atomic counter incremented on every PUT).

// Fig1Transport selects the stack under test.
type Fig1Transport int

// Transports for Figure 1.
const (
	Fig1Inproc Fig1Transport = iota // stand-in for eRPC kernel bypass
	Fig1UDP                         // real loopback UDP (kernel stack)
)

func (t Fig1Transport) String() string {
	if t == Fig1UDP {
		return "udp"
	}
	return "erpc"
}

// Fig1Config sizes one Figure 1 measurement.
type Fig1Config struct {
	Transport     Fig1Transport
	ServerThreads int
	Clients       int // defaults to 2x server threads
	SharedCounter bool
	Keys          int // defaults to 65536
	Measure       time.Duration
	UDPBasePort   int // defaults to 31000
}

// Fig1Result is one Figure 1 data point.
type Fig1Result struct {
	Transport     string
	ServerThreads int
	SharedCounter bool
	Puts          uint64
	Elapsed       time.Duration
}

// Throughput returns PUTs per second.
func (r *Fig1Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Puts) / r.Elapsed.Seconds()
}

// putStore is the minimal DAP-friendly blind-put store: sharded maps with
// per-shard locks, so disjoint PUTs touch disjoint cache lines.
type putStore struct {
	shards [256]struct {
		mu sync.Mutex
		m  map[string][]byte
	}
}

func newPutStore() *putStore {
	s := &putStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	return s
}

func (s *putStore) put(key string, value []byte) {
	h := uint8(0)
	for i := 0; i < len(key); i++ {
		h = h*131 + key[i]
	}
	sh := &s.shards[h]
	sh.mu.Lock()
	sh.m[key] = value
	sh.mu.Unlock()
}

// RunFig1 runs one Figure 1 configuration and returns the data point.
func RunFig1(cfg Fig1Config) (Fig1Result, error) {
	if cfg.Clients == 0 {
		cfg.Clients = 2 * cfg.ServerThreads
	}
	if cfg.Keys == 0 {
		cfg.Keys = 65536
	}
	if cfg.Measure == 0 {
		cfg.Measure = 300 * time.Millisecond
	}
	if cfg.UDPBasePort == 0 {
		cfg.UDPBasePort = 31000
	}

	var net transport.Network
	switch cfg.Transport {
	case Fig1UDP:
		net = transport.NewUDP("127.0.0.1", cfg.UDPBasePort, cfg.ServerThreads+1)
	default:
		net = transport.NewInproc(transport.InprocConfig{})
	}
	defer net.Close()

	store := newPutStore()
	var counter atomic.Uint64 // the artificial scalability bottleneck

	// Server threads: one endpoint per core on node 0. The endpoint is
	// published through an atomic pointer because the delivery goroutine
	// may run the handler before Listen returns.
	for i := 0; i < cfg.ServerThreads; i++ {
		var self atomic.Pointer[transport.Endpoint]
		ep, err := net.Listen(message.Addr{Node: 0, Core: uint32(i)}, func(m *message.Message) {
			if m.Type != message.TypePut {
				return
			}
			store.put(m.Key, m.Value)
			if cfg.SharedCounter {
				counter.Add(1)
			}
			if e := self.Load(); e != nil {
				(*e).Send(m.Src, &message.Message{Type: message.TypePutReply, Seq: m.Seq})
			}
		})
		if err != nil {
			return Fig1Result{}, fmt.Errorf("fig1: listen server %d: %w", i, err)
		}
		self.Store(&ep)
	}

	// Closed-loop clients.
	var stop atomic.Bool
	puts := make([]uint64, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		in := transport.NewInbox(16)
		ep, err := net.ListenDirect(message.Addr{Node: uint32(1 + c), Core: 0}, in.Handle)
		if err != nil {
			return Fig1Result{}, fmt.Errorf("fig1: listen client %d: %w", c, err)
		}
		wg.Add(1)
		go func(c int, ep transport.Endpoint, in *transport.Inbox) {
			defer wg.Done()
			defer ep.Close()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			value := workload.Value(64)
			seq := uint64(0)
			for !stop.Load() {
				seq++
				key := workload.KeyName(rng.Intn(cfg.Keys))
				core := uint32(rng.Intn(cfg.ServerThreads))
				ep.Send(message.Addr{Node: 0, Core: core}, &message.Message{
					Type: message.TypePut, Key: key, Value: value, Seq: seq,
				})
				deadline := time.NewTimer(time.Second)
			wait:
				for {
					select {
					case m := <-in.C:
						if m.Type == message.TypePutReply && m.Seq == seq {
							deadline.Stop()
							// Atomic because the measuring goroutine reads
							// concurrently; one counter per client, so no
							// cross-client cache-line traffic of note.
							atomic.AddUint64(&puts[c], 1)
							break wait
						}
					case <-deadline.C:
						break wait // lost datagram: move on
					}
				}
			}
		}(c, ep, in)
	}

	// Short warmup, then measure.
	time.Sleep(50 * time.Millisecond)
	var before uint64
	for c := range puts {
		before += atomic.LoadUint64(&puts[c])
	}
	start := time.Now()
	time.Sleep(cfg.Measure)
	var after uint64
	for c := range puts {
		after += atomic.LoadUint64(&puts[c])
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	return Fig1Result{
		Transport:     cfg.Transport.String(),
		ServerThreads: cfg.ServerThreads,
		SharedCounter: cfg.SharedCounter,
		Puts:          after - before,
		Elapsed:       elapsed,
	}, nil
}
