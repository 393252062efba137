// Package a is the poolreturn fixture: pooled acquires that leak (no
// release, no ownership transfer) and the full set of shapes that
// legitimately discharge the obligation.
package a

import (
	"io"

	"corbalc/internal/bufpool"
	"corbalc/internal/cdr"
	"corbalc/internal/gateway"
	"corbalc/internal/giop"
	"corbalc/internal/orb"
)

type holder struct {
	msg *giop.Message
	buf []byte
}

// Bad: the buffer is only ever read; nothing Puts it back.
func badLeakBuffer(n int) byte {
	b := bufpool.Get(n) // want `result of bufpool\.Get is neither released nor transferred`
	return b[0]
}

// Bad: the acquire's result is dropped on the floor.
func badDiscardBuffer(n int) {
	bufpool.Get(n) // want `result of bufpool\.Get is discarded`
}

// Bad: blank assignment discards the value just as thoroughly.
func badBlankBuffer(n int) {
	_ = bufpool.Get(n) // want `result of bufpool\.Get is discarded`
}

// Bad: the encoder is written but never released or handed off.
func badLeakEncoder() int {
	e := cdr.GetEncoder(cdr.BigEndian, 0) // want `result of cdr\.GetEncoder is neither released nor transferred`
	e.WriteULong(7)
	return e.Len()
}

// Bad: the message is decoded from the wire and only read; field access
// and non-Release method calls do not discharge the obligation.
func badLeakMessage(r io.Reader) (uint32, error) {
	m, err := giop.ReadMessagePooled(r) // want `result of giop\.ReadMessagePooled is neither released nor transferred`
	if err != nil {
		return 0, err
	}
	return m.Header.Size, nil
}

// Bad: a body encoder that never reaches MessageFromEncoder or Release.
func badLeakBodyEncoder() int {
	e := giop.GetBodyEncoder(cdr.BigEndian) // want `result of giop\.GetBodyEncoder is neither released nor transferred`
	e.WriteULong(1)
	return e.Len()
}

// Good: released with bufpool.Put (a deferred release counts).
func goodPutBuffer(n int) byte {
	b := bufpool.Get(n)
	defer bufpool.Put(b)
	b[0] = 1
	return b[0]
}

// Good: released through the Release method.
func goodReleaseMessage(r io.Reader) (uint32, error) {
	m, err := giop.ReadMessagePooled(r)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	return m.Header.Size, nil
}

// Good: ownership transfers by returning the value.
func goodReturnEncoder() *cdr.Encoder {
	e := cdr.GetEncoder(cdr.BigEndian, 0)
	e.WriteULong(7)
	return e
}

// Good: ownership transfers into MessageFromEncoder (an argument
// position), and the resulting message transfers by being returned at
// the acquire site itself.
func goodHandoffEncoder(h giop.Header) *giop.Message {
	e := giop.GetBodyEncoder(h.Order)
	e.WriteULong(42)
	return giop.MessageFromEncoder(h, e)
}

// Good: passing the value to any callee is a transfer; the callee now
// owns the release obligation.
func goodPassBuffer(n int, sink func([]byte)) {
	b := bufpool.Get(n)
	sink(b)
}

// Good: storing into a field moves ownership to the struct's owner.
func goodStoreMessage(h *holder, hd giop.Header, body []byte) {
	m := giop.NewMessage(hd, body)
	h.msg = m
}

// Good: the acquire feeding an assignment to a field directly is a
// transfer at the acquire site.
func goodStoreBufferDirect(h *holder, n int) {
	h.buf = bufpool.Get(n)
}

// Good: sending on a channel hands the value to the receiver.
func goodSendMessage(ch chan *giop.Message, hd giop.Header) {
	m := giop.NewMessage(hd, nil)
	ch <- m
}

// Good: a release inside a spawned closure satisfies the acquiring
// function — the dispatch-goroutine shape from internal/iiop.
func goodReleaseInClosure(r io.Reader, done chan struct{}) error {
	m, err := giop.ReadMessagePooled(r)
	if err != nil {
		return err
	}
	go func() {
		defer m.Release()
		_ = m.Header.Size
		close(done)
	}()
	return nil
}

// Bad: a pooled refusal reply is written out via field reads but never
// released. Handing reply.Header/reply.Body to the write coalescer is
// not an ownership transfer — selector reads leave the obligation with
// the caller.
func badLeakRefusalReply(write func(giop.Header, []byte) error, v giop.Version, order cdr.ByteOrder, id uint32) {
	reply, err := orb.SystemExceptionReply(v, order, id, orb.Transient()) // want `result of orb\.SystemExceptionReply is neither released nor transferred`
	if err != nil {
		return
	}
	_ = write(reply.Header, reply.Body)
}

// Good: the bounded-dispatch refuse() shape — the coalescer's write
// blocks until the frame is flushed, so the caller still owns the
// pooled reply afterwards and releases it.
func goodRefusalReplyReleased(write func(giop.Header, []byte) error, v giop.Version, order cdr.ByteOrder, id uint32) {
	reply, err := orb.SystemExceptionReply(v, order, id, orb.Transient())
	if err != nil {
		return
	}
	_ = write(reply.Header, reply.Body)
	reply.Release()
}

// Suppressed: an acknowledged leak-to-GC stays silent.
func suppressedAbandon(r io.Reader) error {
	//lint:ignore poolreturn reply raced with cancellation; leak to GC rather than risk a double-Put
	m, err := giop.ReadMessagePooled(r)
	if err != nil {
		return err
	}
	_ = m.Header.Size
	return nil
}

// Bad: a gateway translation buffer that is acquired and only read —
// its pooled body bytes and argument scratch never return to the pool.
func badLeakTransBuf() int {
	tb := gateway.GetTransBuf() // want `result of gateway\.GetTransBuf is neither released nor transferred`
	_ = tb
	return 0
}

// Bad: discarded outright.
func badDiscardTransBuf() {
	gateway.GetTransBuf() // want `result of gateway\.GetTransBuf is discarded`
}

// Good: the handler shape — acquire, defer Release, use.
func goodDeferReleaseTransBuf() {
	tb := gateway.GetTransBuf()
	defer tb.Release()
	_ = tb
}

// Good: handing the buffer to another function transfers the release
// obligation.
func goodTransferTransBuf(sink func(*gateway.TransBuf)) {
	tb := gateway.GetTransBuf()
	sink(tb)
}
