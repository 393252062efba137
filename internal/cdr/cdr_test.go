package cdr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestAlignmentPadding(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(0xAA)  // offset 0
	e.WriteULong(1)     // needs 3 pad bytes to reach offset 4
	e.WriteOctet(0xBB)  // offset 8
	e.WriteUShort(2)    // 1 pad byte to offset 10
	e.WriteDouble(3.14) // 4 pad bytes to offset 16
	want := 24
	if e.Len() != want {
		t.Fatalf("encoded length = %d, want %d", e.Len(), want)
	}
	b := e.Bytes()
	for _, off := range []int{1, 2, 3, 9, 12, 13, 14, 15} {
		if b[off] != 0 {
			t.Errorf("pad byte at %d = %#x, want 0", off, b[off])
		}
	}
}

func TestAlignmentWithBase(t *testing.T) {
	// A ULong written at stream offset 12 (GIOP body start) needs no pad.
	e := NewEncoderAt(BigEndian, 12)
	e.WriteULong(0x01020304)
	if e.Len() != 4 {
		t.Fatalf("len = %d, want 4 (no padding at aligned base)", e.Len())
	}
	// At offset 13 it needs 3 pad bytes.
	e = NewEncoderAt(BigEndian, 13)
	e.WriteULong(0x01020304)
	if e.Len() != 7 {
		t.Fatalf("len = %d, want 7", e.Len())
	}
}

func TestPrimitiveRoundTripBothOrders(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.WriteOctet(0x7F)
		e.WriteBool(true)
		e.WriteBool(false)
		e.WriteChar('Z')
		e.WriteShort(-12345)
		e.WriteUShort(54321)
		e.WriteLong(-123456789)
		e.WriteULong(3123456789)
		e.WriteLongLong(-1234567890123456789)
		e.WriteULongLong(12345678901234567890)
		e.WriteFloat(1.5)
		e.WriteDouble(-2.25)
		e.WriteString("héllo, CORBA")
		e.WriteString("")

		d := NewDecoder(e.Bytes(), order)
		if v, _ := d.ReadOctet(); v != 0x7F {
			t.Errorf("%v octet = %#x", order, v)
		}
		if v, _ := d.ReadBool(); !v {
			t.Errorf("%v bool true", order)
		}
		if v, _ := d.ReadBool(); v {
			t.Errorf("%v bool false", order)
		}
		if v, _ := d.ReadChar(); v != 'Z' {
			t.Errorf("%v char = %c", order, v)
		}
		if v, _ := d.ReadShort(); v != -12345 {
			t.Errorf("%v short = %d", order, v)
		}
		if v, _ := d.ReadUShort(); v != 54321 {
			t.Errorf("%v ushort = %d", order, v)
		}
		if v, _ := d.ReadLong(); v != -123456789 {
			t.Errorf("%v long = %d", order, v)
		}
		if v, _ := d.ReadULong(); v != 3123456789 {
			t.Errorf("%v ulong = %d", order, v)
		}
		if v, _ := d.ReadLongLong(); v != -1234567890123456789 {
			t.Errorf("%v longlong = %d", order, v)
		}
		if v, _ := d.ReadULongLong(); v != 12345678901234567890 {
			t.Errorf("%v ulonglong = %d", order, v)
		}
		if v, _ := d.ReadFloat(); v != 1.5 {
			t.Errorf("%v float = %v", order, v)
		}
		if v, _ := d.ReadDouble(); v != -2.25 {
			t.Errorf("%v double = %v", order, v)
		}
		if v, _ := d.ReadString(); v != "héllo, CORBA" {
			t.Errorf("%v string = %q", order, v)
		}
		if v, _ := d.ReadString(); v != "" {
			t.Errorf("%v empty string = %q", order, v)
		}
		if d.Remaining() != 0 {
			t.Errorf("%v remaining = %d", order, d.Remaining())
		}
	}
}

func TestBigEndianWireLayout(t *testing.T) {
	// Verify the exact big-endian wire bytes of a ULong so that the
	// implementation is CDR-compatible, not merely self-consistent.
	e := NewEncoder(BigEndian)
	e.WriteULong(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{1, 2, 3, 4}) {
		t.Fatalf("big-endian ulong = % x", e.Bytes())
	}
	e = NewEncoder(LittleEndian)
	e.WriteULong(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{4, 3, 2, 1}) {
		t.Fatalf("little-endian ulong = % x", e.Bytes())
	}
}

func TestStringWireFormat(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteString("ab")
	want := []byte{0, 0, 0, 3, 'a', 'b', 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("string wire = % x, want % x", e.Bytes(), want)
	}
}

func TestStringErrors(t *testing.T) {
	// Missing NUL terminator.
	d := NewDecoder([]byte{0, 0, 0, 2, 'a', 'b'}, BigEndian)
	if _, err := d.ReadString(); err != ErrBadString {
		t.Errorf("missing NUL: err = %v, want ErrBadString", err)
	}
	// Length beyond buffer.
	d = NewDecoder([]byte{0, 0, 0, 200, 'a'}, BigEndian)
	if _, err := d.ReadString(); err != ErrTooLong {
		t.Errorf("overlong: err = %v, want ErrTooLong", err)
	}
	// Zero length tolerated as empty.
	d = NewDecoder([]byte{0, 0, 0, 0}, BigEndian)
	if s, err := d.ReadString(); err != nil || s != "" {
		t.Errorf("zero length: %q, %v", s, err)
	}
}

func TestBoolErrors(t *testing.T) {
	d := NewDecoder([]byte{2}, BigEndian)
	if _, err := d.ReadBool(); err != ErrBadBoolean {
		t.Errorf("bad boolean err = %v", err)
	}
}

func TestUnderflow(t *testing.T) {
	d := NewDecoder([]byte{1, 2}, BigEndian)
	if _, err := d.ReadULong(); err != ErrUnderflow {
		t.Errorf("ulong underflow err = %v", err)
	}
	d = NewDecoder(nil, BigEndian)
	if _, err := d.ReadOctet(); err != ErrUnderflow {
		t.Errorf("octet underflow err = %v", err)
	}
}

func TestOctetSeqRoundTrip(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}
	e := NewEncoder(LittleEndian)
	e.WriteOctetSeq(payload)
	d := NewDecoder(e.Bytes(), LittleEndian)
	got, err := d.ReadOctetSeq()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("octet seq = % x, err %v", got, err)
	}
	// Hostile length.
	d = NewDecoder([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1}, LittleEndian)
	if _, err := d.ReadOctetSeq(); err != ErrTooLong {
		t.Errorf("hostile seq err = %v", err)
	}
}

func TestStringSeqRoundTrip(t *testing.T) {
	in := []string{"one", "", "three"}
	e := NewEncoder(BigEndian)
	e.WriteStringSeq(in)
	d := NewDecoder(e.Bytes(), BigEndian)
	out, err := d.ReadStringSeq()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("seq[%d] = %q, want %q", i, out[i], in[i])
		}
	}
	// A hostile count must not allocate unboundedly.
	d = NewDecoder([]byte{0x7F, 0xFF, 0xFF, 0xFF}, BigEndian)
	if _, err := d.ReadStringSeq(); err != ErrTooLong {
		t.Errorf("hostile string seq err = %v", err)
	}
}

// TestReadStringSeqZeroLengthStrings: ReadString accepts a zero length
// as the empty string, so the element-count bound must allow 4 bytes a
// string, not 5.
func TestReadStringSeqZeroLengthStrings(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire []byte
		want []string
		err  error
	}{
		{"one empty", []byte{0, 0, 0, 1, 0, 0, 0, 0}, []string{""}, nil},
		{"two empty", []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}, []string{"", ""}, nil},
		{"empty then a", []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 'a', 0}, []string{"", "a"}, nil},
		{"count past the bytes", []byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0}, nil, ErrTooLong},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := NewDecoder(tc.wire, BigEndian).ReadStringSeq()
			if err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %q, want %q", got, tc.want)
				}
			}
		})
	}
}

func TestEncapsulationRoundTrip(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(0xFF) // shift alignment so the encapsulation is unaligned outside
	e.WriteEncapsulation(LittleEndian, func(inner *Encoder) {
		inner.WriteULong(42)
		inner.WriteString("inside")
	})
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadOctet(); err != nil {
		t.Fatal(err)
	}
	inner, err := d.ReadEncapsulation()
	if err != nil {
		t.Fatal(err)
	}
	if inner.order != LittleEndian {
		t.Errorf("inner order = %v", inner.order)
	}
	if v, _ := inner.ReadULong(); v != 42 {
		t.Errorf("inner ulong = %d", v)
	}
	if s, _ := inner.ReadString(); s != "inside" {
		t.Errorf("inner string = %q", s)
	}
}

func TestEmptyEncapsulationRejected(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 0}, BigEndian)
	if _, err := d.ReadEncapsulation(); err == nil {
		t.Fatal("empty encapsulation accepted")
	}
}

// Property: every primitive round-trips in both byte orders, regardless of
// the (mis)alignment induced by a random octet prefix.
func TestQuickRoundTrip(t *testing.T) {
	f := func(prefix []byte, a int16, b uint32, c int64, d float64, s string, order bool) bool {
		bo := BigEndian
		if order {
			bo = LittleEndian
		}
		e := NewEncoder(bo)
		e.buf = append(e.buf, prefix...)
		e.WriteShort(a)
		e.WriteULong(b)
		e.WriteLongLong(c)
		e.WriteDouble(d)
		e.WriteString(s)
		dec := NewDecoder(e.Bytes(), bo)
		if _, err := dec.ReadOctets(len(prefix)); err != nil {
			return false
		}
		ga, err := dec.ReadShort()
		if err != nil || ga != a {
			return false
		}
		gb, err := dec.ReadULong()
		if err != nil || gb != b {
			return false
		}
		gc, err := dec.ReadLongLong()
		if err != nil || gc != c {
			return false
		}
		gd, err := dec.ReadDouble()
		if err != nil {
			return false
		}
		if gd != d && !(math.IsNaN(gd) && math.IsNaN(d)) {
			return false
		}
		gs, err := dec.ReadString()
		return err == nil && gs == s
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a decoder never panics on arbitrary input; it either returns a
// value or an error for any read sequence.
func TestQuickNoPanicOnGarbage(t *testing.T) {
	f := func(raw []byte, order bool) bool {
		bo := BigEndian
		if order {
			bo = LittleEndian
		}
		d := NewDecoder(raw, bo)
		for d.Remaining() > 0 {
			if _, err := d.ReadString(); err != nil {
				break
			}
		}
		d = NewDecoder(raw, bo)
		for d.Remaining() > 0 {
			if _, err := d.ReadEncapsulation(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeULong(b *testing.B) {
	e := NewEncoder(LittleEndian)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<16 {
			e.buf = e.buf[:0]
		}
		e.WriteULong(uint32(i))
	}
}

func BenchmarkDecodeString(b *testing.B) {
	e := NewEncoder(BigEndian)
	e.WriteString("a moderately sized string payload")
	raw := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(raw, BigEndian)
		if _, err := d.ReadString(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPutULongAtRoundTrip(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		buf := make([]byte, 12)
		PutULongAt(buf, 8, order, 0xCAFEBABE)
		if got := ULongAt(buf, 8, order); got != 0xCAFEBABE {
			t.Fatalf("order %v: round trip got %#x", order, got)
		}
		for i, b := range buf[:8] {
			if b != 0 {
				t.Fatalf("order %v: byte %d outside the target word written: %#x", order, i, b)
			}
		}
	}
	buf := make([]byte, 4)
	PutULongAt(buf, 0, BigEndian, 0x01020304)
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 || buf[3] != 4 {
		t.Fatalf("big-endian layout: % x", buf)
	}
	PutULongAt(buf, 0, LittleEndian, 0x01020304)
	if buf[0] != 4 || buf[1] != 3 || buf[2] != 2 || buf[3] != 1 {
		t.Fatalf("little-endian layout: % x", buf)
	}
}
