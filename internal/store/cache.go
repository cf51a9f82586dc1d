package store

import (
	"container/list"
	"sync"

	"stair/internal/core"
)

// defaultDegradedCache is the cache capacity (in stripes) when
// Config.DegradedCache is 0.
const defaultDegradedCache = 8

// stripeCache is a small LRU of reconstructed degraded stripes. It is
// filled by one path only: the degraded read's whole-stripe fallback,
// taken when the wanted block's row holds more than m losses (a read
// its own row can decide is row-local: it reads n−m sectors of that row
// and leaves nothing here). Without the cache,
// every read of a lost block of such a stripe re-runs the upstairs
// decode (§4.2–4.3) — r·n sector reads plus a whole-stripe solve per
// block — even though the stripe stays degraded until a repair or a
// device replacement lands. With it, the first such read pays for the
// reconstruction and its neighbours on the same stripe are served from
// memory.
//
// Entries are immutable once inserted: readers copy sectors out under
// the cache mutex, and any event that changes a stripe's logical
// content or failure pattern (flush, completed repair, sector-error
// injection, device fail/replace) invalidates or purges instead of
// patching. All methods
// are safe on a nil receiver, which is how a disabled cache is
// represented.
type stripeCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used
	entries map[int]*list.Element
	hits    uint64
	// epoch counts invalidations; putAt rejects a reconstruction begun
	// before the latest one, so a decode in flight across a concurrent
	// purge (device fail/replace, which runs without shard locks)
	// cannot re-insert pre-fault state the purge meant to drop.
	epoch uint64
	// release returns a stripe's pooled slab once the cache drops it
	// (eviction, invalidation, a rejected or superseded putAt). putAt
	// takes ownership of every stripe handed to it, accepted or not.
	// Readers copy sectors out under mu, and release only runs under
	// mu, so a released slab can never be read through the cache.
	release func(*core.Stripe)
}

type cacheEntry struct {
	stripe int
	st     *core.Stripe
}

func newStripeCache(capacity int, release func(*core.Stripe)) *stripeCache {
	if capacity <= 0 {
		return nil
	}
	return &stripeCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[int]*list.Element, capacity),
		release: release,
	}
}

// blockInto copies the cached reconstruction's sector for cell into
// dst, reporting false on a miss (or a disabled cache).
func (c *stripeCache) blockInto(stripe int, cell core.Cell, dst []byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[stripe]
	if el == nil {
		return false
	}
	c.lru.MoveToFront(el)
	c.hits++
	copy(dst, el.Value.(*cacheEntry).st.Sector(cell.Col, cell.Row))
	return true
}

// snapshotEpoch returns the current invalidation epoch; capture it
// before starting a reconstruction and hand it to putAt.
func (c *stripeCache) snapshotEpoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// putAt inserts (or refreshes) a stripe's reconstruction, evicting the
// least recently used entry past capacity. putAt takes ownership of st:
// the caller must not touch it afterwards, whether the insert is
// accepted, superseding, or dropped. The insert is dropped when any
// invalidation happened since epoch was snapshotted — the
// reconstruction may predate a failure-pattern change.
func (c *stripeCache) putAt(stripe int, st *core.Stripe, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch {
		c.releaseLocked(st)
		return
	}
	if el := c.entries[stripe]; el != nil {
		ent := el.Value.(*cacheEntry)
		c.releaseLocked(ent.st)
		ent.st = st
		c.lru.MoveToFront(el)
		return
	}
	c.entries[stripe] = c.lru.PushFront(&cacheEntry{stripe: stripe, st: st})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(c.entries, ent.stripe)
		c.releaseLocked(ent.st)
	}
}

// releaseLocked hands a dropped stripe's slab back to the pool.
func (c *stripeCache) releaseLocked(st *core.Stripe) {
	if c.release != nil {
		c.release(st)
	}
}

// invalidate drops one stripe's entry (its content or failure pattern
// changed). The caller holds the stripe's shard lock, which already
// serializes it against that stripe's decode-and-putAt, so the epoch is
// left alone and unrelated in-flight inserts survive.
func (c *stripeCache) invalidate(stripe int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(stripe)
}

// invalidateRacing drops one stripe's entry AND bumps the epoch — for
// callers that do not hold the stripe's shard lock (fault injection),
// where a concurrent decode could otherwise re-insert a reconstruction
// predating the change.
func (c *stripeCache) invalidateRacing(stripe int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.removeLocked(stripe)
}

func (c *stripeCache) removeLocked(stripe int) {
	if el := c.entries[stripe]; el != nil {
		c.lru.Remove(el)
		delete(c.entries, stripe)
		c.releaseLocked(el.Value.(*cacheEntry).st)
	}
}

// purge drops every entry — used when a device-level transition
// (fail, replace) changes the failure pattern of all stripes at once.
func (c *stripeCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	for el := c.lru.Front(); el != nil; el = el.Next() {
		c.releaseLocked(el.Value.(*cacheEntry).st)
	}
	c.lru.Init()
	clear(c.entries)
}

// size reports the current number of cached stripes.
func (c *stripeCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
