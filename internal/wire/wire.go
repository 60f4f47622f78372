// Package wire is the byte-level vocabulary of the session state image
// (core.Snapshot.Image): append helpers that make the encoding
// deterministic — the same state always yields the same bytes — and a
// bounds-checked Reader for the decoding side. Every layer that
// contributes a section to the image (stats, factdb, gibbs, em,
// guidance, core) writes and reads it with these, so the rules are
// stated once:
//
//   - counts, ids and epochs are uvarints; RNG words and floats are
//     fixed 8-byte little-endian words (floats travel as bit patterns);
//     bool vectors are bit-packed, low bit first, padding bits zero;
//   - vectors carry no length of their own: the reader supplies the
//     destination, whose size comes from the corpus or from a count
//     read through Int with a corpus-derived ceiling, so a decoder
//     never allocates by what hostile bytes claim;
//   - a Reader's first failure sticks: every later read returns zero
//     values, and the caller checks Err once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShort reports a read past the end of the image; ErrValue a value
// outside what the reader's caller allows (a count above its ceiling, a
// bool byte that is neither 0 nor 1, set padding bits).
var (
	ErrShort = errors.New("wire: image truncated")
	ErrValue = errors.New("wire: value out of range")
)

// AppendU64 appends one fixed-width word.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendInt appends a non-negative count, id or epoch.
func AppendInt(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBool appends one flag byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64 appends one float as its bit pattern.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendF64s appends the floats' bit patterns.
func AppendF64s(b []byte, v []float64) []byte {
	for _, f := range v {
		b = AppendF64(b, f)
	}
	return b
}

// AppendBools appends v bit-packed.
func AppendBools(b []byte, v []bool) []byte {
	for i := 0; i < len(v); i += 8 {
		var x byte
		for j, bit := range v[i:min(i+8, len(v))] {
			if bit {
				x |= 1 << j
			}
		}
		b = append(b, x)
	}
	return b
}

// Reader decodes what the Append functions wrote.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, nil when every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure unless one is already set;
// section decoders use it for violations only they can see.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// take returns the next n bytes, nil after a failure.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U64 reads one fixed-width word.
func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads one uvarint of any magnitude (an epoch).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = ErrShort
		if n < 0 {
			r.err = ErrValue // overflows 64 bits
		}
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a count or id that must not exceed limit.
func (r *Reader) Int(limit int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(max(limit, 0)) {
		r.err = ErrValue
		return 0
	}
	return int(v)
}

// Bool reads one flag byte.
func (r *Reader) Bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.err = ErrValue
	}
	return p[0] == 1
}

// F64 reads one float.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// F64s fills dst.
func (r *Reader) F64s(dst []float64) {
	p := r.take(8 * len(dst))
	if p == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// U64s fills dst.
func (r *Reader) U64s(dst []uint64) {
	p := r.take(8 * len(dst))
	if p == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
}

// Bools fills dst from its bit-packed form.
func (r *Reader) Bools(dst []bool) {
	p := r.take((len(dst) + 7) / 8)
	if p == nil {
		return
	}
	for i := range dst {
		dst[i] = p[i/8]&(1<<(i%8)) != 0
	}
	if pad := len(dst) % 8; pad != 0 && p[len(p)-1]>>pad != 0 {
		r.err = ErrValue
	}
}
