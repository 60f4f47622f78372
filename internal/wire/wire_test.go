package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	bools := []bool{true, false, false, true, true, false, true, false, true, true, false}
	floats := []float64{0, -0.0, 1.5, math.Inf(-1), math.SmallestNonzeroFloat64}
	words := []uint64{0, 1, math.MaxUint64}

	var b []byte
	b = AppendU64(b, 0xdeadbeefcafef00d)
	b = AppendInt(b, 0)
	b = AppendInt(b, 300)
	b = AppendInt(b, math.MaxUint64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendF64(b, math.Pi)
	b = AppendF64s(b, floats)
	b = AppendBools(b, bools)
	b = AppendBools(b, nil)
	for _, w := range words {
		b = AppendU64(b, w)
	}

	r := NewReader(b)
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Int(0); got != 0 {
		t.Errorf("Int = %d, want 0", got)
	}
	if got := r.Int(300); got != 300 {
		t.Errorf("Int = %d, want 300", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	gotFloats := make([]float64, len(floats))
	r.F64s(gotFloats)
	for i := range floats {
		if math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) {
			t.Errorf("F64s[%d] = %v, want %v bit for bit", i, gotFloats[i], floats[i])
		}
	}
	gotBools := make([]bool, len(bools))
	r.Bools(gotBools)
	if !reflect.DeepEqual(gotBools, bools) {
		t.Errorf("Bools = %v, want %v", gotBools, bools)
	}
	r.Bools(nil)
	gotWords := make([]uint64, len(words))
	r.U64s(gotWords)
	if !reflect.DeepEqual(gotWords, words) {
		t.Errorf("U64s = %v, want %v", gotWords, words)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Errorf("after reading everything: err %v, %d bytes left", r.Err(), r.Len())
	}
}

// TestReaderRefuses: every way the bytes can be wrong is a sticky
// failure with zero values after it, never a panic or an over-read.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(r *Reader)
		want error
	}{
		{"U64 short", make([]byte, 7), func(r *Reader) { r.U64() }, ErrShort},
		{"F64s short", make([]byte, 15), func(r *Reader) { r.F64s(make([]float64, 2)) }, ErrShort},
		{"U64s short", make([]byte, 8), func(r *Reader) { r.U64s(make([]uint64, 2)) }, ErrShort},
		{"Bools short", make([]byte, 1), func(r *Reader) { r.Bools(make([]bool, 9)) }, ErrShort},
		{"Bool short", nil, func(r *Reader) { r.Bool() }, ErrShort},
		{"Bool neither 0 nor 1", []byte{2}, func(r *Reader) { r.Bool() }, ErrValue},
		{"padding bits set", []byte{0b1000}, func(r *Reader) { r.Bools(make([]bool, 3)) }, ErrValue},
		{"uvarint unterminated", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }, ErrShort},
		{"uvarint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.Uvarint() }, ErrValue},
		{"Int above its limit", AppendInt(nil, 11), func(r *Reader) { r.Int(10) }, ErrValue},
		{"Int against a negative limit", AppendInt(nil, 1), func(r *Reader) { r.Int(-5) }, ErrValue},
	} {
		r := NewReader(tc.b)
		tc.read(r)
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, r.Err(), tc.want)
		}
		// Sticky: nothing reads after a failure, whatever is left.
		if r.U64() != 0 || r.Uvarint() != 0 || r.Int(9) != 0 || r.Bool() || r.F64() != 0 {
			t.Errorf("%s: a read after the failure returned a value", tc.name)
		}
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: a later read replaced the first failure with %v", tc.name, r.Err())
		}
	}
	r := NewReader(nil)
	mine := errors.New("section says no")
	r.Fail(mine)
	r.Fail(ErrValue)
	if r.Err() != mine {
		t.Errorf("Fail: err %v, want the first failure", r.Err())
	}
}
