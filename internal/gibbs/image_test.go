package gibbs

import (
	"errors"
	"reflect"
	"testing"

	"factcheck/internal/stats"
	"factcheck/internal/wire"
)

// TestChainImageResumesTheChain: a chain built fresh over the same
// database and given another chain's image — which leaves it released —
// continues, once SetModel has built its tables, exactly like it: same
// assignments sweep after sweep, which needs the assignment, the frozen
// flags, the RNG position and the recounted agreement all right.
func TestChainImageResumesTheChain(t *testing.T) {
	r := stats.NewRNG(41)
	db := randomDB(r, 2)
	m := randomModel(r, db, true)
	a := NewChain(db, stats.NewRNG(5))
	a.SetModel(m)
	a.Freeze(1, true)
	a.Freeze(3, false)
	for i := 0; i < 9; i++ {
		a.Sweep(nil)
	}

	rd := wire.NewReader(a.AppendImage(nil))
	img := ReadChainImage(rd, db.NumClaims)
	if rd.Err() != nil || rd.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", rd.Err(), rd.Len())
	}
	b := NewChain(db, stats.NewRNG(777))
	b.SetModel(m)
	b.InstallImage(img)
	if !b.Released() {
		t.Fatal("an installed image left the tables of the assignment it replaced")
	}
	b.SetModel(m)
	if !reflect.DeepEqual(a.agree, b.agree) {
		t.Fatalf("recounted agreement %v, want %v", b.agree, a.agree)
	}
	for i := 0; i < 20; i++ {
		a.Sweep(nil)
		b.Sweep(nil)
		if !reflect.DeepEqual(a.x, b.x) {
			t.Fatalf("sweep %d after the image: assignments diverged", i)
		}
	}
	if b.Value(1) != true || b.Value(3) != false {
		t.Fatal("frozen claims moved")
	}

	rd = wire.NewReader(a.AppendImage(nil)[:3])
	ReadChainImage(rd, db.NumClaims)
	if !errors.Is(rd.Err(), wire.ErrShort) {
		t.Fatalf("truncated chain section: err %v, want ErrShort", rd.Err())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("installing an image decoded for another claim count did not panic")
		}
	}()
	b.InstallImage(ChainImage{x: make([]bool, 1), frozen: make([]bool, 1)})
}

func TestSampleSetImageRoundTrip(t *testing.T) {
	const n = 70 // two words, six bits into the second
	rng := stats.NewRNG(8)
	rows := make([][]bool, 5)
	for k := range rows {
		rows[k] = make([]bool, n)
		for c := range rows[k] {
			rows[k][c] = rng.Bernoulli(0.4)
		}
	}
	ss := sampleSetOf(n, rows...)
	img := ss.AppendImage(nil)
	r := wire.NewReader(img)
	got := ReadSampleSetImage(r, n, 8)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	if !reflect.DeepEqual(got, ss) {
		t.Fatal("round trip changed the sample set")
	}
	// A set that has grown holds its samples apart from the dense
	// backing; the image of it decodes to the same Ω.
	ss.Grow(3)
	r = wire.NewReader(ss.AppendImage(nil))
	got = ReadSampleSetImage(r, n+3, 8)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for c := 0; c < n+3; c++ {
		if got.Marginal(c) != ss.Marginal(c) {
			t.Fatalf("marginal of claim %d after growth: %v, want %v", c, got.Marginal(c), ss.Marginal(c))
		}
	}

	for _, tc := range []struct {
		name            string
		img             []byte
		claims, samples int
		want            error
	}{
		{"another claim count", img, n + 1, 8, wire.ErrValue},
		{"more samples than the budgets allow", img, n, 4, wire.ErrValue},
		{"truncated", img[:len(img)-1], n, 8, wire.ErrShort},
		{"a bit past the last claim", func() []byte {
			bad := append([]byte(nil), img...)
			bad[len(bad)-1] |= 0x80 // top bit of the last sample's second word
			return bad
		}(), n, 8, wire.ErrValue},
	} {
		r := wire.NewReader(tc.img)
		if got := ReadSampleSetImage(r, tc.claims, tc.samples); !errors.Is(r.Err(), tc.want) || got != nil {
			t.Errorf("%s: err %v (set %v), want %v and no set", tc.name, r.Err(), got != nil, tc.want)
		}
	}
}
