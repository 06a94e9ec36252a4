package message

import (
	"bytes"
	"reflect"
	"testing"

	"meerkat/internal/timestamp"
)

// smallMessage is a typical hot-path message: a validate request with a
// two-key read set and a one-key write set.
func smallMessage() *Message {
	return &Message{
		Type: TypeValidate,
		Txn: Txn{
			ID: timestamp.TxnID{Seq: 7, ClientID: 3},
			ReadSet: []ReadSetEntry{
				{Key: "user_1", WTS: timestamp.Timestamp{Time: 10, ClientID: 1}},
				{Key: "user_2", WTS: timestamp.Timestamp{Time: 11, ClientID: 2}},
			},
			WriteSet: []WriteSetEntry{{Key: "user_1", Value: []byte("balance=42")}},
		},
		TID:    timestamp.TxnID{Seq: 7, ClientID: 3},
		TS:     timestamp.Timestamp{Time: 99, ClientID: 3},
		CoreID: 2,
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	for _, m := range []*Message{smallMessage(), sampleMessage(), {Type: TypeCommit}} {
		e := AcquireEncoder()
		got := e.EncodeInto(m)
		want := Encode(nil, m)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("EncodeInto != Encode for %v", m.Type)
		}
		// A second encode replaces, not appends.
		if got2 := e.EncodeInto(m); len(got2) != len(want) {
			t.Errorf("second EncodeInto len = %d, want %d", len(got2), len(want))
		}
		e.Release()
	}
}

func TestDecodeIntoRoundTrip(t *testing.T) {
	m := AcquireMessage()
	defer ReleaseMessage(m)
	// Decode a large message, then a small one, into the same Message: the
	// second decode must fully overwrite the first (no residue), even though
	// it reuses the larger capacity.
	for _, src := range []*Message{sampleMessage(), smallMessage(), {Type: TypeCommit}} {
		buf := Encode(nil, src)
		if err := DecodeInto(m, buf); err != nil {
			t.Fatalf("DecodeInto(%v): %v", src.Type, err)
		}
		// Compare via a fresh Decode, which the round-trip tests anchor to
		// the source message; DeepEqual on values ignores spare capacity.
		want, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("reused decode mismatch for %v:\ngot:  %+v\nwant: %+v", src.Type, m, want)
		}
	}
}

func TestMessageReset(t *testing.T) {
	m := AcquireMessage()
	buf := Encode(nil, sampleMessage())
	if err := DecodeInto(m, buf); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Type != TypeInvalid || m.Key != "" || m.OK || len(m.Txn.ReadSet) != 0 ||
		len(m.Records) != 0 || len(m.Entries) != 0 || len(m.State) != 0 || len(m.Value) != 0 ||
		len(m.Keys) != 0 || len(m.Reads) != 0 {
		t.Fatalf("Reset left state behind: %+v", m)
	}
	ReleaseMessage(m)
}

// TestPooledEncodeZeroAllocs is the allocation regression gate for the send
// path: encoding a small message through a pooled Encoder must not allocate.
func TestPooledEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	m := smallMessage()
	// Prime the pool with a sized buffer.
	e := AcquireEncoder()
	e.EncodeInto(m)
	e.Release()
	allocs := testing.AllocsPerRun(200, func() {
		enc := AcquireEncoder()
		enc.EncodeInto(m)
		enc.Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled encode allocated %v objects/op, want 0", allocs)
	}
}

// TestPooledMultiReadZeroAllocs gates the batched execution phase's codec
// cost: encoding a multi-read request and a multi-read reply through pooled
// Encoders, and decoding the reply into a recycled Message (the coordinator's
// steady state — reply values reuse the previous decode's capacity), must not
// allocate. Request decode is exempt: key strings are freshly allocated by
// design, since the replica's vstore lookup retains them.
func TestPooledMultiReadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs without -race")
	}
	req := &Message{Type: TypeMultiRead, Seq: 9, Keys: []string{"user_1", "user_2", "user_3"}}
	reply := &Message{Type: TypeMultiReadReply, Seq: 9, ReplicaID: 2, Reads: []ReadResult{
		{Value: []byte("balance=42"), WTS: timestamp.Timestamp{Time: 10, ClientID: 1}, OK: true},
		{Value: []byte("balance=43"), WTS: timestamp.Timestamp{Time: 11, ClientID: 1}, OK: true},
		{OK: false},
	}}
	replyBuf := Encode(nil, reply)
	// Prime the pools with sized buffers and a decoded message.
	e := AcquireEncoder()
	e.EncodeInto(req)
	e.Release()
	dst := AcquireMessage()
	if err := DecodeInto(dst, replyBuf); err != nil {
		t.Fatal(err)
	}
	ReleaseMessage(dst)
	allocs := testing.AllocsPerRun(200, func() {
		enc := AcquireEncoder()
		enc.EncodeInto(req)
		enc.EncodeInto(reply)
		enc.Release()
		m := AcquireMessage()
		if err := DecodeInto(m, replyBuf); err != nil {
			t.Fatal(err)
		}
		ReleaseMessage(m)
	})
	if allocs != 0 {
		t.Fatalf("pooled multi-read codec allocated %v objects/op, want 0", allocs)
	}
}

// BenchmarkEncodeDecode measures the encode→decode round trip — the
// serialization cost of one UDP message each way. The baseline sub-benchmark
// is the pre-pooling behavior (fresh buffer, fresh Message per op); pooled
// uses the reusable Encoder and DecodeInto with a recycled Message.
func BenchmarkEncodeDecode(b *testing.B) {
	src := sampleMessage()
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := Encode(nil, src)
			if _, err := Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		enc := AcquireEncoder()
		defer enc.Release()
		dst := AcquireMessage()
		defer ReleaseMessage(dst)
		for i := 0; i < b.N; i++ {
			buf := enc.EncodeInto(src)
			if err := DecodeInto(dst, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReleaseDropsBorrowedBytes pins the pool's aliasing rule: a replica
// builds its replies in pooled messages whose Value and Reads[i].Value point
// at committed store bytes. Recycling that capacity would let a later
// DecodeInto into the same message overwrite committed data, so release
// must drop byte slices the message does not own.
func TestReleaseDropsBorrowedBytes(t *testing.T) {
	store := []byte("committed-value-0123456789")
	want := append([]byte(nil), store...)
	other := Encode(nil, &Message{Type: TypeMultiReadReply, Value: []byte("XXXXXXXXXX"),
		Reads: []ReadResult{{Value: []byte("YYYYYYYYYYYYYYYYYYYYYYYYYY"), OK: true}}})
	// sync.Pool need not hand back the message just released (under -race
	// it drops some at random); repeating makes recycling one all but
	// certain.
	for i := 0; i < 50; i++ {
		m := AcquireMessage()
		m.Type = TypeMultiReadReply
		m.Value = store[:10]
		m.Reads = append(m.Reads, ReadResult{Value: store, OK: true})
		ReleaseMessage(m)

		m = AcquireMessage()
		if err := DecodeInto(m, other); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(store, want) {
			t.Fatalf("round %d: DecodeInto into a recycled reply overwrote store bytes: %q", i, store)
		}
		ReleaseMessage(m)
	}
}

// TestDisownedBytesSurviveRelease covers the reader's side: a decoded reply
// owns its bytes and recycles them into its next decode, unless a reader
// that kept one of them disowns the message before releasing it.
func TestDisownedBytesSurviveRelease(t *testing.T) {
	first := Encode(nil, &Message{Type: TypeReadReply, Value: []byte("first-value")})
	second := Encode(nil, &Message{Type: TypeReadReply, Value: []byte("other-value")})
	for i := 0; i < 50; i++ {
		m := AcquireMessage()
		if err := DecodeInto(m, first); err != nil {
			t.Fatal(err)
		}
		kept := m.Value
		m.Disown()
		ReleaseMessage(m)

		m = AcquireMessage()
		if err := DecodeInto(m, second); err != nil {
			t.Fatal(err)
		}
		if string(kept) != "first-value" {
			t.Fatalf("round %d: kept value overwritten by a later decode: %q", i, kept)
		}
		ReleaseMessage(m)
	}
}

// TestCloneSharesNoRecycledArrays checks that each copy of a duplicated
// message can be released on its own: releasing one must leave the other's
// sets intact.
func TestCloneSharesNoRecycledArrays(t *testing.T) {
	m := AcquireMessage()
	m.Type = TypeMultiReadReply
	m.Keys = append(m.Keys, "a", "b")
	m.Reads = append(m.Reads, ReadResult{Value: []byte("va"), OK: true}, ReadResult{Value: []byte("vb"), OK: true})
	m.Txn.ReadSet = append(m.Txn.ReadSet, ReadSetEntry{Key: "a"})
	c := m.Clone()
	if !reflect.DeepEqual(m, c) {
		t.Fatalf("clone differs from original:\n%+v\n%+v", m, c)
	}
	ReleaseMessage(m)
	if len(c.Keys) != 2 || c.Keys[1] != "b" || string(c.Reads[1].Value) != "vb" || c.Txn.ReadSet[0].Key != "a" {
		t.Fatalf("releasing the original disturbed the clone: %+v", c)
	}
}
