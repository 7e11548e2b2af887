package serve

import "sync"

const (
	// responseCacheCapacity bounds the remembered response bodies, shared by
	// both routes. Measured bodies: an /v1/analyze response is about 1.4 KB
	// and a 32-processor /v1/diagnose report 5–15 KB, so 256 entries stay
	// under about 4 MB.
	responseCacheCapacity = 256
	// quarantineCapacity bounds the remembered panicking request shapes.
	quarantineCapacity = 256
)

// fifo is a bounded, concurrency-safe map that evicts in insertion order:
// at capacity a put drops the oldest entry, so it never grows past its
// bound however many distinct keys arrive. A key already present keeps its
// first value. The server keeps two, both keyed by the route's key prefix
// plus the digest of the normalized request document (requestKey): the
// response cache of encoded 200 bodies (an analysis is a pure function of
// that document, so a body once encoded is the answer to every repeat), and
// the quarantine of request shapes that panicked the pipeline, valued by
// the panic.
type fifo[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]V
	order []string
}

func newFIFO[V any](capacity int) *fifo[V] {
	return &fifo[V]{cap: capacity, items: map[string]V{}}
}

func (c *fifo[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.items[key]
	return v, ok
}

// put remembers v under key, evicting the oldest entry at capacity. A key
// already present keeps its first value.
func (c *fifo[V]) put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	if len(c.order) >= c.cap {
		delete(c.items, c.order[0])
		c.order = c.order[1:]
	}
	c.items[key] = v
	c.order = append(c.order, key)
}
