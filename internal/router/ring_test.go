package router

import (
	"fmt"
	"testing"
)

func TestRingOwnerDeterministic(t *testing.T) {
	a := NewRing()
	b := NewRing()
	for _, m := range []string{"http://a", "http://b", "http://c"} {
		a.Add(m)
		b.Add(m)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("session-%d", i)
		oa, ok := a.Owner(key)
		if !ok {
			t.Fatal("no owner on a populated ring")
		}
		if ob, _ := b.Owner(key); ob != oa {
			t.Fatalf("two rings with identical members disagree on %q: %s vs %s", key, oa, ob)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing()
	members := []string{"http://a", "http://b", "http://c"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		o, _ := r.Owner(fmt.Sprintf("session-%d", i))
		counts[o]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.15 || share > 0.55 {
			t.Errorf("member %s owns %.0f%% of keys; want a roughly even split (counts: %v)", m, 100*share, counts)
		}
	}
}

// TestRingConsistency is the property the ring exists for: removing a
// member moves only that member's keys, and adding it back restores
// the exact previous placement.
func TestRingConsistency(t *testing.T) {
	r := NewRing()
	for _, m := range []string{"http://a", "http://b", "http://c"} {
		r.Add(m)
	}
	before := map[string]string{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("session-%d", i)
		before[key], _ = r.Owner(key)
	}
	r.Remove("http://b")
	moved := 0
	for key, prev := range before {
		now, ok := r.Owner(key)
		if !ok {
			t.Fatal("no owner after removal")
		}
		if now == "http://b" {
			t.Fatalf("removed member still owns %q", key)
		}
		if prev != "http://b" && now != prev {
			t.Fatalf("key %q moved from %s to %s although its owner never left", key, prev, now)
		}
		if prev == "http://b" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test is vacuous: the removed member owned no keys")
	}
	r.Add("http://b")
	for key, prev := range before {
		if now, _ := r.Owner(key); now != prev {
			t.Fatalf("key %q not restored to %s after re-adding the member (got %s)", key, prev, now)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing()
	if _, ok := r.Owner("x"); ok {
		t.Fatal("empty ring reported an owner")
	}
	r.Add("http://only")
	if o, ok := r.Owner("x"); !ok || o != "http://only" {
		t.Fatalf("single-member ring: owner = %q, %v", o, ok)
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
}

// TestRingSequentialIDSpread: an id family differing only in a
// trailing counter must split across members. Raw FNV-1a fails this —
// nearby keys hash into a tight cluster, so for some member pairs an
// entire sequential family landed on one backend (and the ghost-id
// searches in the handler tests flaked); the avalanche finalizer in
// ringHash is what this pins.
func TestRingSequentialIDSpread(t *testing.T) {
	for port := 32768; port < 60000; port += 7 {
		r := NewRing()
		a := fmt.Sprintf("http://127.0.0.1:%d", port)
		b := fmt.Sprintf("http://127.0.0.1:%d", port+100)
		r.Add(a)
		r.Add(b)
		na := 0
		for i := 0; i < 256; i++ {
			if o, _ := r.Owner(fmt.Sprintf("ghost-%d", i)); o == a {
				na++
			}
		}
		if na == 0 || na == 256 {
			t.Fatalf("members %s/%s: all 256 sequential ids on one member", a, b)
		}
	}
}
