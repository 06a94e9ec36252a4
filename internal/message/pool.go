package message

import "sync"

// Hot-path pooling. Encoding a message for the UDP transport needs a
// transient buffer whose lifetime ends the moment the datagram is handed to
// the kernel; replicas build their hot-path replies (and coordinators their
// unicast read requests) in pooled Messages, which the single receiver
// releases once it has copied out what it needs. Both cycle through
// sync.Pools here instead of the allocator. Who acquires and who releases
// each message kind is documented in DESIGN.md §7 ("Hot-path performance").

// maxPooledEncoderCap bounds the buffer capacity an Encoder may carry back
// into the pool, so one huge state-transfer encoding does not pin its buffer
// for the rest of the process lifetime.
const maxPooledEncoderCap = 64 << 10

// Encoder is a reusable encode buffer with acquire/release semantics. The
// zero value is usable; AcquireEncoder avoids even the Encoder allocation.
type Encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// AcquireEncoder returns a pooled Encoder. Pair with Release.
func AcquireEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// EncodeInto encodes m, replacing the encoder's previous contents, and
// returns the encoded bytes. The bytes alias the encoder's internal buffer:
// they are valid only until the next EncodeInto or Release and must not be
// retained past either.
func (e *Encoder) EncodeInto(m *Message) []byte {
	e.buf = Encode(e.buf[:0], m)
	return e.buf
}

// Bytes returns the most recently encoded contents.
func (e *Encoder) Bytes() []byte { return e.buf }

// Release returns the encoder to the pool, invalidating any bytes previously
// returned by EncodeInto. Oversized buffers are dropped rather than pooled.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledEncoderCap {
		e.buf = nil
	}
	encoderPool.Put(e)
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns a pooled, zeroed Message (its sets may retain
// capacity from a previous life, but their lengths are zero). Pair with
// ReleaseMessage once no other goroutine can still hold a reference — for a
// request/reply exchange that is the receiver of the final reply, per the
// ownership rules in DESIGN.md §7.
//
// The message is marked as borrowing its byte slices: a builder points Value
// and the elements' byte fields at memory it does not hand over (committed
// store values, a caller's buffers), so ReleaseMessage drops them rather than
// recycling their capacity. DecodeInto clears the mark.
func AcquireMessage() *Message {
	m := messagePool.Get().(*Message)
	m.borrowed = true
	return m
}

// ReleaseMessage resets m and returns it to the pool. The caller must be the
// sole owner: a message still sitting in a transport queue or inbox must not
// be released.
func ReleaseMessage(m *Message) {
	m.Reset()
	messagePool.Put(m)
}

// Disown marks m's byte slices as held elsewhere — a reader kept some of
// them — so Reset drops them instead of recycling their capacity into the
// next DecodeInto. Call it before releasing a message whose bytes escaped.
func (m *Message) Disown() { m.borrowed = true }

// Reset clears m for reuse, keeping top-level slice capacity so a recycled
// message re-decodes (or is re-built) without reallocating its sets. Byte
// slices survive only when DecodeInto filled them and nothing disowned them;
// otherwise every retained element is cleared and Value dropped, so a later
// DecodeInto cannot copy into memory m never owned.
func (m *Message) Reset() {
	rs, ws, ops := m.Txn.ReadSet[:0], m.Txn.WriteSet[:0], m.Txn.OpSet[:0]
	recs, ents, sts := m.Records[:0], m.Entries[:0], m.State[:0]
	keys, reads := m.Keys[:0], m.Reads[:0]
	val := m.Value[:0]
	if m.borrowed {
		clear(rs[:cap(rs)])
		clear(ws[:cap(ws)])
		clear(ops[:cap(ops)])
		clear(recs[:cap(recs)])
		clear(ents[:cap(ents)])
		clear(sts[:cap(sts)])
		clear(keys[:cap(keys)])
		clear(reads[:cap(reads)])
		val = nil
	}
	*m = Message{}
	m.Txn.ReadSet, m.Txn.WriteSet, m.Txn.OpSet = rs, ws, ops
	m.Records, m.Entries, m.State = recs, ents, sts
	m.Keys, m.Reads = keys, reads
	m.Value = val
}

// Clone returns a copy of m that shares none of the arrays Reset recycles,
// so each copy can be released by its own receiver. The copy borrows the
// byte slices it shares with m (see Disown).
func (m *Message) Clone() *Message {
	c := new(Message)
	*c = *m
	c.Txn.ReadSet = append([]ReadSetEntry(nil), m.Txn.ReadSet...)
	c.Txn.WriteSet = append([]WriteSetEntry(nil), m.Txn.WriteSet...)
	c.Txn.OpSet = append([]OpSetEntry(nil), m.Txn.OpSet...)
	c.Records = append([]TRecordEntry(nil), m.Records...)
	c.Entries = append([]LogEntry(nil), m.Entries...)
	c.State = append([]KeyState(nil), m.State...)
	c.Keys = append([]string(nil), m.Keys...)
	c.Reads = append([]ReadResult(nil), m.Reads...)
	c.borrowed = true
	return c
}
