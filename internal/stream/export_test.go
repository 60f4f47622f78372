package stream

// newWithBufferCap is New with room for only n observations, so a test
// reaches the eviction path in a few updates.
func newWithBufferCap(dim, n int) *Engine {
	e := New(dim)
	e.bufCap = n
	return e
}
