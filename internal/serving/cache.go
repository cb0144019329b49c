package serving

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map bucket, entry struct) charged against the byte budget so
// a flood of tiny entries cannot blow past the configured capacity.
const entryOverhead = 128

// cacheEntry is one cached response body.
type cacheEntry struct {
	key     string
	val     []byte
	size    int64
	expires time.Time // zero means never
}

// resultCache is a byte-bounded LRU with per-entry TTL. All methods are
// safe for concurrent use. Values handed out by get are shared — the
// caller must treat them as immutable.
type resultCache struct {
	mu       sync.Mutex
	capBytes int64
	ttl      time.Duration
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	now      func() time.Time

	hits, misses, evictions, expirations *telemetry.Counter
	bytesGauge, entriesGauge             *telemetry.Gauge
}

func newResultCache(capBytes int64, ttl time.Duration, reg *telemetry.Registry) *resultCache {
	return &resultCache{
		capBytes:     capBytes,
		ttl:          ttl,
		ll:           list.New(),
		items:        map[string]*list.Element{},
		now:          time.Now,
		hits:         reg.Counter("serving.cache.hits"),
		misses:       reg.Counter("serving.cache.misses"),
		evictions:    reg.Counter("serving.cache.evictions"),
		expirations:  reg.Counter("serving.cache.expirations"),
		bytesGauge:   reg.Gauge("serving.cache.bytes"),
		entriesGauge: reg.Gauge("serving.cache.entries"),
	}
}

// get returns the cached value for key, or (nil, false) on miss or
// expiry. A hit refreshes the entry's LRU position but not its TTL.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.expirations.Inc()
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return e.val, true
}

// put inserts or replaces key, then evicts least-recently-used entries
// until the byte budget holds. Values larger than the whole budget are
// not cached.
func (c *resultCache) put(key string, val []byte) {
	size := int64(len(key)+len(val)) + entryOverhead
	if size > c.capBytes {
		return
	}
	e := &cacheEntry{key: key, val: val, size: size}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += size
	for c.bytes > c.capBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Inc()
	}
	c.updateGauges()
}

func (c *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.updateGauges()
}

func (c *resultCache) updateGauges() {
	c.bytesGauge.Set(c.bytes)
	c.entriesGauge.Set(int64(c.ll.Len()))
}

// len reports the number of live entries (for tests).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
