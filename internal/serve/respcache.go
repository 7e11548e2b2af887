package serve

import "sync"

// responseCacheCapacity bounds the remembered response bodies, shared by
// both routes. Measured bodies: an /v1/analyze response is about 1.4 KB and
// a 32-processor /v1/diagnose report 5–15 KB, so 256 entries stay under
// about 4 MB.
const responseCacheCapacity = 256

// responseCache is a bounded FIFO map of encoded response bodies, keyed by
// the route's key prefix plus the digest of the normalized request document
// (the quarantine's key). An analysis is a pure function of that document,
// so a body once encoded is the answer to every repeat.
type responseCache struct {
	mu    sync.Mutex
	items map[string][]byte
	order []string
}

func (c *responseCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.items[key]
	return b, ok
}

// put remembers body under key, evicting the oldest entry at capacity. A key
// already present keeps its first body.
func (c *responseCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		c.items = make(map[string][]byte, responseCacheCapacity)
	}
	if _, ok := c.items[key]; ok {
		return
	}
	if len(c.order) >= responseCacheCapacity {
		delete(c.items, c.order[0])
		c.order = c.order[1:]
	}
	c.items[key] = body
	c.order = append(c.order, key)
}
