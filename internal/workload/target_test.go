package workload

import "testing"

func TestClientTargetAccessors(t *testing.T) {
	target := NewClientTarget("http://127.0.0.1:1")
	if target.Kind() != "http" || target.Client() == nil {
		t.Fatal("client target identity broken")
	}
	if target.Client().Retry == nil || target.Client().Retry.MaxAttempts < 2 {
		t.Fatal("loadtest client must ship with retries enabled")
	}
	target.Close() // no-op
}
