package stats

import (
	"errors"
	"testing"

	"factcheck/internal/wire"
)

// TestRNGImageResumesTheStream: a generator restored from its image
// continues the stream exactly where the original stands.
func TestRNGImageResumesTheStream(t *testing.T) {
	a := NewRNG(99)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	var b RNG
	r := wire.NewReader(a.AppendImage(nil))
	b.ReadImage(r)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d after the image: %d vs %d", i, x, y)
		}
	}
}

func TestRNGImageRefusesTheStuckState(t *testing.T) {
	var g RNG
	r := wire.NewReader(make([]byte, 16))
	g.ReadImage(r)
	if !errors.Is(r.Err(), wire.ErrValue) {
		t.Fatalf("all-zero state: err %v, want ErrValue", r.Err())
	}
	r = wire.NewReader(make([]byte, 9))
	g.ReadImage(r)
	if !errors.Is(r.Err(), wire.ErrShort) {
		t.Fatalf("truncated state: err %v, want ErrShort", r.Err())
	}
}
