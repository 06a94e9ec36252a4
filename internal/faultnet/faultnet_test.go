package faultnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"meerkat/internal/message"
	"meerkat/internal/transport"
)

// collector buffers delivered messages behind a mutex for assertions.
type collector struct {
	mu   sync.Mutex
	msgs []*message.Message
}

func (c *collector) handle(m *message.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) wait(n int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		c.mu.Lock()
		got := len(c.msgs)
		c.mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) seqs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.msgs))
	for i, m := range c.msgs {
		out[i] = m.Seq
	}
	return out
}

func addr(node, core uint32) message.Addr { return message.Addr{Node: node, Core: core} }

// pipe builds a wrapped inproc network with a sender endpoint on node 1 and
// a receiving endpoint (with collector) on node 2.
func pipe(t *testing.T, plan *Plan) (*Network, transport.Endpoint, *collector) {
	t.Helper()
	n := Wrap(transport.NewInproc(transport.InprocConfig{}), plan)
	t.Cleanup(func() { n.Close() })
	var col collector
	if _, err := n.Listen(addr(2, 0), col.handle); err != nil {
		t.Fatal(err)
	}
	src, err := n.Listen(addr(1, 0), func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	return n, src, &col
}

func TestTransparentWithoutFaults(t *testing.T) {
	_, src, col := pipe(t, nil)
	for i := 0; i < 100; i++ {
		if err := src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := col.wait(100, time.Second); got != 100 {
		t.Fatalf("delivered %d/100 without faults", got)
	}
}

func TestDropIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		plan := &Plan{Seed: seed, Rules: []Rule{{
			SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DropProb: 0.3,
		}}}
		_, src, col := pipe(t, plan)
		for i := 0; i < 400; i++ {
			src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
		}
		col.wait(400, 200*time.Millisecond) // waits out the tail
		return col.seqs()
	}
	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 400 {
		t.Fatalf("drop rule had no effect: %d/400 delivered", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different survivors at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestCrashAndRestartEvents(t *testing.T) {
	plan := &Plan{Events: []Event{
		{At: 10, Op: OpCrash, Node: 2},
		{At: 20, Op: OpRestart, Node: 2},
	}}
	n, src, col := pipe(t, plan)

	for i := 0; i < 9; i++ { // sends 1..9: before the crash
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	if got := col.wait(9, time.Second); got != 9 {
		t.Fatalf("pre-crash delivered %d/9", got)
	}
	for i := 9; i < 19; i++ { // sends 10..19: black-holed
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	time.Sleep(10 * time.Millisecond)
	if got := col.wait(9, 50*time.Millisecond); got != 9 {
		t.Fatalf("black-holed messages leaked through: %d", got)
	}
	for i := 19; i < 29; i++ { // send 20 fires the restart
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	if got := col.wait(19, time.Second); got != 19 {
		t.Fatalf("post-restart delivered %d, want 19", got)
	}

	// Both events were published for the harness.
	for _, want := range []Op{OpCrash, OpRestart} {
		select {
		case ev := <-n.Events():
			if ev.Op != want || ev.Node != 2 {
				t.Fatalf("event %+v, want op %s node 2", ev, want)
			}
		default:
			t.Fatalf("missing %s event", want)
		}
	}
	if bh := n.Stats().Blackhole.Load(); bh != 10 {
		t.Fatalf("blackholed %d, want 10", bh)
	}
}

func TestPartitionSeparatesGroups(t *testing.T) {
	plan := &Plan{Events: []Event{
		{At: 0, Op: OpPartition, Groups: [][]uint32{{1}, {2}}},
	}}
	_, src, col := pipe(t, plan)
	for i := 0; i < 10; i++ {
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	if got := col.wait(1, 30*time.Millisecond); got != 0 {
		t.Fatalf("partitioned nodes exchanged %d messages", got)
	}
}

func TestPartitionImplicitGroup(t *testing.T) {
	// Only node 9 is isolated; unlisted nodes 1 and 2 share the implicit
	// group and keep talking.
	plan := &Plan{Events: []Event{
		{At: 0, Op: OpPartition, Groups: [][]uint32{{9}}},
		{At: 15, Op: OpHeal},
	}}
	_, src, col := pipe(t, plan)
	for i := 0; i < 10; i++ {
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	if got := col.wait(10, time.Second); got != 10 {
		t.Fatalf("implicit-group traffic blocked: %d/10", got)
	}
}

func TestDuplicateAndReorder(t *testing.T) {
	plan := &Plan{Seed: 3, Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DupProb: 1,
	}}}
	_, src, col := pipe(t, plan)
	src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: 1})
	if got := col.wait(2, time.Second); got != 2 {
		t.Fatalf("DupProb=1 delivered %d copies, want 2", got)
	}

	plan2 := &Plan{Seed: 3, Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, ReorderProb: 1,
	}}}
	_, src2, col2 := pipe(t, plan2)
	src2.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: 1})
	src2.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: 2})
	src2.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: 3})
	// Every message is held and released by its successor: 1 and 2 arrive
	// (each popped when the next message passes), 3 stays held.
	if got := col2.wait(2, time.Second); got != 2 {
		t.Fatalf("reorder released %d messages, want 2", got)
	}
	seqs := col2.seqs()
	if seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("reorder sequence %v", seqs)
	}
}

func TestDelayRuleDefersDelivery(t *testing.T) {
	plan := &Plan{Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any,
		DelayProb: 1, Delay: 30 * time.Millisecond,
	}}}
	_, src, col := pipe(t, plan)
	start := time.Now()
	src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: 1})
	if got := col.wait(1, time.Second); got != 1 {
		t.Fatal("delayed message never arrived")
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivery after %v, want >= ~30ms", el)
	}
}

func TestStallRuleInstalledAndCleared(t *testing.T) {
	plan := &Plan{Events: []Event{
		{At: 5, Op: OpRule, Rule: &Rule{
			ID: "stall-2-0", SrcNode: Any, SrcCore: Any, DstNode: 2, DstCore: 0,
			DropProb: 1,
		}},
		{At: 10, Op: OpClearRule, RuleID: "stall-2-0"},
	}}
	_, src, col := pipe(t, plan)
	for i := 0; i < 4; i++ { // sends 1..4 pass
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	if got := col.wait(4, time.Second); got != 4 {
		t.Fatalf("pre-stall delivered %d/4", got)
	}
	for i := 4; i < 9; i++ { // sends 5..9 dropped by the stall rule
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	for i := 9; i < 14; i++ { // send 10 clears; 10..14 pass
		src.Send(addr(2, 0), &message.Message{Type: message.TypeRead, Seq: uint64(i)})
	}
	if got := col.wait(9, time.Second); got != 9 {
		t.Fatalf("delivered %d, want 9 (4 before + 5 after the stall)", got)
	}
}

func TestPlanDumpRoundTripAndDeterminism(t *testing.T) {
	plan := &Plan{
		Seed:  42,
		Rules: []Rule{{ID: "loss", SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any, DropProb: 0.01}},
		Events: []Event{
			{At: 100, Op: OpCrash, Node: 3},
			{At: 500, Op: OpRestart, Node: 3},
		},
	}
	a, err := plan.Dump()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := plan.Dump()
	if !bytes.Equal(a, b) {
		t.Fatal("Dump is not byte-stable")
	}
	back, err := Load(a)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := back.Dump()
	if !bytes.Equal(a, c) {
		t.Fatal("Dump/Load/Dump changed the schedule")
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []*Plan{
		{Rules: []Rule{{DropProb: 1.5}}},
		{Rules: []Rule{{Delay: -time.Second}}},
		{Events: []Event{{Op: "warp"}}},
		{Events: []Event{{At: 10, Op: OpCrash}, {At: 5, Op: OpHeal}}},
		{Events: []Event{{Op: OpRule}}},
		{Events: []Event{{Op: OpClearRule}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated", i)
		}
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
}

// TestSharedMessageUnderFaults sends one message to several destinations
// through delay and duplication rules, as the coordinator's broadcast does.
// Delayed and duplicated copies are dispatched from timer goroutines while
// later sends of the same message are still running; under -race this
// fails if any layer writes the shared message after the first dispatch.
func TestSharedMessageUnderFaults(t *testing.T) {
	plan := &Plan{Seed: 5, Rules: []Rule{{
		SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any,
		DupProb: 0.5, DelayProb: 0.5, Delay: time.Millisecond, Jitter: time.Millisecond,
	}}}
	n := Wrap(transport.NewInproc(transport.InprocConfig{}), plan)
	t.Cleanup(func() { n.Close() })
	var col collector
	var batch []transport.Outgoing
	for node := uint32(2); node <= 4; node++ {
		if _, err := n.Listen(addr(node, 0), func(m *message.Message) {
			_ = m.Src
			col.handle(m)
		}); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, transport.Outgoing{Dst: addr(node, 0)})
	}
	src, err := n.Listen(addr(1, 0), func(*message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 100
	for i := 0; i < rounds; i++ {
		m := &message.Message{Type: message.TypeRead, Seq: uint64(i)}
		for j := range batch {
			batch[j].M = m
		}
		src.SendBatch(batch)
	}
	if got := col.wait(rounds*len(batch), 2*time.Second); got < rounds*len(batch) {
		t.Fatalf("delivered %d messages, want at least %d", got, rounds*len(batch))
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	for _, m := range col.msgs {
		if m.Src != addr(1, 0) {
			t.Fatalf("message %d carries Src %v", m.Seq, m.Src)
		}
	}
}

// TestDuplicateSurvivesReleaseOfOriginal checks the duplication rule against
// the pooled reply path: a receiver owns what it is delivered and may
// release it to the message pool at once, so the duplicate must be an
// independent copy made before the original is handed over — on the
// undelayed path and on the delayed one, where both copies depart from a
// timer goroutine. Under -race this also fails if the copy is taken after
// the first delivery.
func TestDuplicateSurvivesReleaseOfOriginal(t *testing.T) {
	for _, delay := range []time.Duration{0, time.Millisecond} {
		plan := &Plan{Seed: 9, Rules: []Rule{{
			SrcNode: Any, DstNode: Any, SrcCore: Any, DstCore: Any,
			DupProb: 1, DelayProb: 1, Delay: delay,
		}}}
		n := Wrap(transport.NewInproc(transport.InprocConfig{}), plan)
		var (
			mu     sync.Mutex
			copies []*message.Message
			bad    []string
		)
		// The first copy is released the moment it arrives, exactly as a
		// coordinator releases a reply it has read.
		if _, err := n.ListenDirect(addr(2, 0), func(m *message.Message) {
			mu.Lock()
			defer mu.Unlock()
			if len(m.Keys) != 2 || m.Keys[1] != "k2" || len(m.Reads) != 2 || string(m.Reads[1].Value) != "v2" {
				bad = append(bad, m.String())
			}
			copies = append(copies, m)
			if len(copies) == 1 {
				message.ReleaseMessage(m)
			}
		}); err != nil {
			t.Fatal(err)
		}
		src, err := n.Listen(addr(1, 0), func(*message.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		m := message.AcquireMessage()
		m.Type = message.TypeMultiReadReply
		m.Keys = append(m.Keys, "k1", "k2")
		m.Reads = append(m.Reads, message.ReadResult{Value: []byte("v1"), OK: true}, message.ReadResult{Value: []byte("v2"), OK: true})
		src.Send(addr(2, 0), m)

		deadline := time.Now().Add(time.Second)
		for {
			mu.Lock()
			got := len(copies)
			mu.Unlock()
			if got == 2 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		if len(copies) != 2 {
			t.Fatalf("delay %v: delivered %d copies, want 2", delay, len(copies))
		}
		if copies[0] == copies[1] {
			t.Fatalf("delay %v: the duplicate is the original pointer", delay)
		}
		if len(bad) > 0 {
			t.Fatalf("delay %v: releasing the original disturbed the duplicate: %v", delay, bad)
		}
		mu.Unlock()
		n.Close()
	}
}
