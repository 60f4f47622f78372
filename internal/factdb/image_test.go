package factdb

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"factcheck/internal/wire"
)

func imageState() *State {
	s := NewState(11)
	s.SetLabel(2, true)
	s.SetLabel(7, false)
	s.SetLabel(10, true)
	s.SetP(0, 0.125)
	s.SetP(5, 1.0/3)
	s.SetP(9, 0)
	return s
}

func TestStateImageRoundTrip(t *testing.T) {
	s := imageState()
	r := wire.NewReader(s.AppendImage(nil))
	got := ReadStateImage(r, s.Len())
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the state:\n got  %+v\n want %+v", got, s)
	}
	if got.NumLabeled() != 3 {
		t.Fatalf("NumLabeled = %d, want 3", got.NumLabeled())
	}
}

// TestStateImageRefuses: a P that is not a probability, a labelled
// claim whose P is not pinned to its label, a truncated section and a
// section decoded for another claim count all fail.
func TestStateImageRefuses(t *testing.T) {
	n := imageState().Len()
	for _, tc := range []struct {
		name   string
		mutate func(s *State)
		want   error
	}{
		{"NaN", func(s *State) { s.p[0] = math.NaN() }, wire.ErrValue},
		{"above one", func(s *State) { s.p[1] = 1.5 }, wire.ErrValue},
		{"negative", func(s *State) { s.p[1] = -0.25 }, wire.ErrValue},
		{"confirmed label unpinned", func(s *State) { s.p[2] = 0.9 }, wire.ErrValue},
		{"refuted label unpinned", func(s *State) { s.p[7] = 1 }, wire.ErrValue},
	} {
		s := imageState()
		tc.mutate(s)
		r := wire.NewReader(s.AppendImage(nil))
		ReadStateImage(r, n)
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, r.Err(), tc.want)
		}
	}
	img := imageState().AppendImage(nil)
	r := wire.NewReader(img[:len(img)-1])
	ReadStateImage(r, n)
	if !errors.Is(r.Err(), wire.ErrShort) {
		t.Errorf("truncated: err %v, want ErrShort", r.Err())
	}
	r = wire.NewReader(img)
	ReadStateImage(r, n+64)
	if r.Err() == nil {
		t.Error("a section for 11 claims decoded as one for 75")
	}
}
