package peakpower

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cell"
	"repro/internal/isa"
)

// Cache is a content-addressed, in-memory analysis cache: results are keyed
// by the hash of the analyzed image plus the fully resolved configuration
// (target, library characterization, clock, budgets, COI depth, engine), so
// a hit is guaranteed to be the same analysis — not merely the same
// application name. Attach one with WithCache; a second Analyze of the same
// image and options is then served from the cache without re-exploration.
// Concurrent lookups of the same key single-flight: one analysis runs, the
// rest wait for it and share its result.
//
// Cached results are shared: a hit returns the same *Result pointer that
// the original analysis produced. Results are read-only by contract, so
// sharing is safe; do not mutate a Result obtained from a cached analyzer.
// A Cache is safe for concurrent use and may back any number of Analyzers
// (the key includes the target, so distinct designs never collide).
type Cache struct {
	mu       sync.Mutex
	max      int
	lru      *list.List // most recent at front; values are *cacheEntry
	byKey    map[string]*list.Element
	inflight map[string]*flight
	disk     *DiskStore
	hits     uint64
	diskHits uint64
	misses   uint64
}

type cacheEntry struct {
	key string
	res *Result
}

// flight is one in-progress analysis other callers of the same key wait
// on instead of exploring redundantly (single-flight).
type flight struct {
	done chan struct{}
	err  error
}

// NewCache creates an analysis cache holding at most maxEntries results
// (least-recently-used eviction); maxEntries <= 0 means unbounded.
func NewCache(maxEntries int) *Cache {
	return &Cache{
		max:      maxEntries,
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// do returns the cached result for key or computes it, deduplicating
// concurrent computations: while one caller (the leader) runs compute,
// other callers of the same key block on the leader instead of exploring
// the same analysis redundantly, then take the freshly cached result as a
// hit. A waiting caller's own ctx still cancels its wait. A leader failure
// is shared with the waiters — except cancellation/deadline errors, which
// are private to the leader's context: there the waiters retry, and at
// most one becomes the next leader.
func (c *Cache) do(ctx context.Context, key string, compute func() (*Result, error)) (*Result, error) {
	for {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok {
			c.hits++
			c.lru.MoveToFront(el)
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					return nil, f.err
				}
				continue // re-check: success landed in the cache, or a canceled leader elects a new one
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		c.misses++
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()
		// The leader checks the disk tier before computing, still inside the
		// single flight: concurrent callers of the key wait on one disk read
		// (or one analysis), never a stampede of either.
		return c.lead(key, f, func() (*Result, error) {
			if res, ok := c.diskLoad(key); ok {
				return res, nil
			}
			res, err := compute()
			if err == nil && res != nil && c.disk != nil {
				// Write-through, best effort: a full disk must not fail an
				// analysis that succeeded. The failure stays visible on
				// DiskStore.Err / Stats for readiness probes.
				_ = c.disk.Store(key, &res.Report)
			}
			return res, err
		})
	}
}

// Peek reports whether a result for the given analysis key is already
// available in the memory or disk tier, without recording a hit or a
// miss and without promoting the entry. The fleet coordinator uses it to
// skip distributing work whose sealed Report is already on hand.
func (c *Cache) Peek(key string) bool {
	c.mu.Lock()
	_, ok := c.byKey[key]
	d := c.disk
	c.mu.Unlock()
	if ok {
		return true
	}
	if d == nil {
		return false
	}
	_, ok = d.Load(key)
	return ok
}

// AttachDisk adds a disk tier: memory misses are served from the store
// when a verified entry exists, and fresh analyses are written through to
// it. A disk hit carries only the sealed Report — the live handles (Tree,
// Peaks, the image) did not survive the original process — so callers
// needing those re-analyze without a cache. Call before the cache is in
// use; a nil store detaches.
func (c *Cache) AttachDisk(d *DiskStore) {
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
}

// diskLoad consults the disk tier, rehydrating a hit into a Report-only
// Result (the lead defer caches it in memory like a computed one).
func (c *Cache) diskLoad(key string) (*Result, bool) {
	c.mu.Lock()
	d := c.disk
	c.mu.Unlock()
	if d == nil {
		return nil, false
	}
	rep, ok := d.Load(key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.diskHits++
	c.mu.Unlock()
	return &Result{Report: *rep}, true
}

// lead runs compute as the key's single-flight leader and settles the
// flight — including on panic, which would otherwise leave the flight
// registered forever and wedge the key for every future caller (a
// recovered server goroutine must not poison the cache).
func (c *Cache) lead(key string, f *flight, compute func() (*Result, error)) (res *Result, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil && res != nil {
			c.putLocked(key, res)
		}
		// A deterministic analysis failure (budget, unsupported construct)
		// would fail identically for every waiter — share it instead of
		// letting each waiter serially re-run the doomed exploration. A
		// cancellation or deadline belongs to the leader's context only;
		// after a panic (err == nil, res == nil) waiters simply retry.
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			f.err = err
		}
		c.mu.Unlock()
		close(f.done)
	}()
	return compute()
}

// putLocked stores a successful analysis, evicting the least-recently-used
// entry beyond the capacity bound. Callers hold c.mu.
func (c *Cache) putLocked(key string, res *Result) {
	if el, ok := c.byKey[key]; ok {
		// A concurrent analysis of the same work finished first; keep the
		// existing entry so all callers share one result.
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	if c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from the in-memory tier.
	Hits uint64 `json:"hits"`
	// DiskHits counts memory misses served from the disk tier.
	DiskHits uint64 `json:"disk_hits,omitempty"`
	// Misses counts lookups that required a fresh analysis (disk hits
	// included — they register as a miss of the memory tier first).
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// Stats returns the cache's hit/miss counters and size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, DiskHits: c.diskHits, Misses: c.misses, Entries: c.lru.Len()}
}

// ImageHash returns a stable content hash of an assembled image: name,
// entry point, initialized words, input regions, and loop bounds — every
// part of the binary the analysis observes. It is the image component of
// the cache key and a convenient identity for logs and service requests.
func ImageHash(img *Image) string {
	h := sha256.New()
	writeImage(h, img)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// writeImage streams the analysis-relevant image content deterministically.
func writeImage(w io.Writer, img *isa.Image) {
	fmt.Fprintf(w, "name=%s\nentry=%#04x\n", img.Name, img.Entry)
	addrs := make([]int, 0, len(img.Words))
	for a := range img.Words {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		fmt.Fprintf(w, "w %#04x %#04x\n", a, img.Words[uint16(a)])
	}
	for _, r := range img.Inputs {
		fmt.Fprintf(w, "in %#04x %d\n", r.Addr, r.Words)
	}
	lbs := make([]int, 0, len(img.LoopBounds))
	for a := range img.LoopBounds {
		lbs = append(lbs, int(a))
	}
	sort.Ints(lbs)
	for _, a := range lbs {
		fmt.Fprintf(w, "lb %#04x %d\n", a, img.LoopBounds[uint16(a)])
	}
}

// cacheKey fingerprints one analysis: the image content plus every resolved
// configuration knob that influences the result. Options that cannot change
// the outcome (progress reporting, worker count, the cache itself) are
// deliberately excluded, so e.g. a progress-instrumented re-run still hits.
func (a *Analyzer) cacheKey(img *Image, cfg config) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\ntarget=%s\n", SchemaVersion, a.target.Name())
	writeImage(h, img)
	fmt.Fprintf(h, "lib=%s feature=%d\n", cfg.lib.Name, cfg.lib.FeatureNM)
	for _, k := range cell.Kinds() {
		p := cfg.lib.Params(k)
		fmt.Fprintf(h, "cell %s %g %g %g %g %g\n",
			k, p.EnergyRise, p.EnergyFall, p.EnergyClk, p.LeakageNW, p.AreaUM2)
	}
	fmt.Fprintf(h, "clock=%g maxCycles=%d maxNodes=%d coi=%d engine=%s\n",
		cfg.clockHz, cfg.maxCycles, cfg.maxNodes, cfg.coiK, cfg.engine)
	if cfg.irq != nil {
		// Already normalized by WithInterrupts, so equal effective
		// configurations key identically.
		fmt.Fprintf(h, "irq min=%d max=%d conc=%d radio=%d\n",
			cfg.irq.MinLatency, cfg.irq.MaxLatency, cfg.irq.ConcreteLatency, cfg.irq.RadioBusyCycles)
	}
	return hex.EncodeToString(h.Sum(nil))
}
