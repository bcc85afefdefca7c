package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/trace"
)

// coreConfigHash fingerprints a core configuration for capture-cache keying:
// two configurations with the same rendered parameter set produce
// byte-identical traces, so their captures are interchangeable.
func coreConfigHash(cfg cpu.Config) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return hex.EncodeToString(h[:8])
}

// captureKey names one cached capture: the full simulation input. Single-core
// captures are keyed by (bench, seed, scale, core-config hash); multicore
// captures leave those empty and carry a hash of the whole core set instead.
type captureKey struct {
	Bench string
	Seed  uint64
	Scale uint64
	Core  string
	Cores string
}

// coreSetHash fingerprints a multicore job's ordered core set. Order matters:
// the lockstep system arbitrates same-cycle shared-LLC accesses in core
// order, so swapped placements produce different captures.
func coreSetHash(cores []CoreJobSpec) string {
	var b strings.Builder
	for _, c := range cores {
		fmt.Fprintf(&b, "%s:%d:%d,", c.Bench, c.Seed, c.Scale)
	}
	h := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(h[:8])
}

// id is the map key and the shared store's entry name. The hex hashes keep it
// filesystem-safe; bench names are lowercase alphanumerics.
func (k captureKey) id() string {
	if k.Cores != "" {
		return fmt.Sprintf("cores-%s-%s", k.Cores, k.Core)
	}
	return fmt.Sprintf("%s-%d-%d-%s", k.Bench, k.Seed, k.Scale, k.Core)
}

// cacheEntry is one cached capture plus the per-core stats of the run that
// produced it (needed to calibrate replays; single-core captures hold one
// element). Entries are refcounted: replays hold a ref while streaming, and
// an entry evicted under load is only Closed once the last ref drops.
type cacheEntry struct {
	key     captureKey
	capture *trace.Capture
	stats   []cpu.Stats
	bytes   uint64
	refs    int
	dead    bool
	elem    *list.Element
}

// captureFn performs the cycle-level simulation on a cache miss, returning
// one Stats per core (length 1 for single-core captures).
type captureFn func(ctx context.Context) (*trace.Capture, []cpu.Stats, error)

// captureCache is the LRU capture cache with singleflight capture dedup:
// repeated jobs for the same (bench, seed, scale, core) skip the simulation
// entirely and only replay, and concurrent identical misses perform exactly
// one simulation between them.
type captureCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   uint64
	bytes      uint64
	ll         *list.List // front = most recently used
	byKey      map[string]*cacheEntry
	flights    map[string]chan struct{} // closed when the leader finishes
	hits       uint64
	misses     uint64
}

func newCaptureCache(maxEntries int, maxBytes uint64) *captureCache {
	return &captureCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		byKey:      map[string]*cacheEntry{},
		flights:    map[string]chan struct{}{},
	}
}

// getOrCapture returns a ref-held entry for key, running fn on a miss. When
// a concurrent caller is already capturing the same key, it waits for that
// flight and reuses the result (counted as a hit: the simulation was
// shared). The caller must release() the entry when done replaying.
func (c *captureCache) getOrCapture(ctx context.Context, key captureKey, fn captureFn) (ent *cacheEntry, hit bool, err error) {
	id := key.id()
	for {
		c.mu.Lock()
		if ent := c.byKey[id]; ent != nil {
			ent.refs++
			c.ll.MoveToFront(ent.elem)
			c.hits++
			c.mu.Unlock()
			return ent, true, nil
		}
		if fl := c.flights[id]; fl != nil {
			c.mu.Unlock()
			// Another job is simulating this key right now; wait and
			// re-check. If the leader fails (or is cancelled), the retry
			// loop promotes this waiter to leader.
			select {
			case <-fl:
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		// Miss: become the capture leader.
		fl := make(chan struct{})
		c.flights[id] = fl
		c.misses++
		c.mu.Unlock()

		capt, stats, err := fn(ctx)

		c.mu.Lock()
		delete(c.flights, id)
		if err != nil {
			c.mu.Unlock()
			close(fl)
			return nil, false, err
		}
		ent := &cacheEntry{
			key:     key,
			capture: capt,
			stats:   stats,
			bytes:   capt.Bytes(),
			refs:    1,
		}
		c.insertLocked(ent)
		c.mu.Unlock()
		close(fl)
		return ent, false, nil
	}
}

// insertLocked adds ent at the LRU front and evicts past capacity. Callers
// hold c.mu.
func (c *captureCache) insertLocked(ent *cacheEntry) {
	ent.elem = c.ll.PushFront(ent)
	c.byKey[ent.key.id()] = ent
	c.bytes += ent.bytes
	for c.ll.Len() > 1 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		c.evictLocked(oldest.Value.(*cacheEntry))
	}
}

// evictLocked unlinks ent; the capture closes now or, if replays still hold
// refs, when the last one releases.
func (c *captureCache) evictLocked(ent *cacheEntry) {
	c.ll.Remove(ent.elem)
	delete(c.byKey, ent.key.id())
	c.bytes -= ent.bytes
	ent.dead = true
	if ent.refs == 0 {
		ent.capture.Close()
	}
}

// release drops one ref taken by getOrCapture.
func (c *captureCache) release(ent *cacheEntry) {
	c.mu.Lock()
	ent.refs--
	if ent.dead && ent.refs == 0 {
		ent.capture.Close()
	}
	c.mu.Unlock()
}

// counters returns (hits, misses, entries, bytes) for /metrics.
func (c *captureCache) counters() (hits, misses uint64, entries int, bytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len(), c.bytes
}
