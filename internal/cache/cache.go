// Package cache implements the shared HTTP/1.1 response cache behind the
// simulated proxy tier: RFC 2068 §13 expiration (explicit Cache-Control
// max-age and Expires lifetimes, with the classic last-modified heuristic
// as fallback), If-Modified-Since/If-None-Match revalidation bookkeeping,
// byte-capacity LRU eviction, and collapsed forwarding so concurrent
// misses for one URL trigger a single upstream fetch.
//
// The cache is clocked by the simulation (freshness is stored as absolute
// sim.Time deadlines, never wall-clock), and it never iterates its maps
// on a hot path, so runs through a cache are as deterministic as runs
// without one.
package cache

import (
	"container/list"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/sim"
)

// heuristicFraction and heuristicCap bound the fallback lifetime for
// responses with a Last-Modified but no explicit expiry: 10% of the
// entity's age at arrival, capped at 24 hours — the rule RFC 2068
// §13.2.4 blesses and 1997 proxies (CERN, Harvest/Squid) shipped.
const (
	heuristicFraction = 0.10
	heuristicCap      = 24 * time.Hour
)

// Entry is one cached response.
type Entry struct {
	Key    string
	Status int
	// Header is the stored response header (cloned at Store time); Body
	// the entity body.
	Header httpmsg.Header
	Body   []byte
	// ETag and LastModified are the entity's validators, extracted for
	// conditional handling.
	ETag, LastModified string
	// Received is when the response entered the cache; FreshUntil is the
	// instant it stops being served without revalidation. Heuristic marks
	// a lifetime computed by the last-modified fallback rather than an
	// explicit max-age/Expires.
	Received   sim.Time
	FreshUntil sim.Time
	Heuristic  bool
	// Revalidations counts the entry's refreshes by a 304.
	Revalidations int

	elem *list.Element
}

// Size is the entry's byte-capacity charge: body plus serialized header
// estimate.
func (e *Entry) Size() int64 {
	n := int64(len(e.Body))
	for _, f := range e.Header.Fields() {
		n += int64(len(f.Name) + len(f.Value) + 4) // ": " + CRLF
	}
	return n
}

// Stats counts cache activity.
type Stats struct {
	Refreshes int
	Evictions int
}

// Cache is a byte-capacity LRU response cache on a simulated clock.
type Cache struct {
	capacity int64
	clock    func() sim.Time

	entries map[string]*Entry
	lru     *list.List // front = most recently used; values are *Entry
	used    int64
	stats   Stats

	flights map[string]*Flight
}

// New returns an empty cache holding at most capacity bytes, reading the
// current instant from clock.
func New(capacity int64, clock func() sim.Time) *Cache {
	return &Cache{
		capacity: capacity,
		clock:    clock,
		entries:  make(map[string]*Entry),
		lru:      list.New(),
		flights:  make(map[string]*Flight),
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Get returns the entry for key (nil if absent) and marks it most
// recently used.
func (c *Cache) Get(key string) *Entry {
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e.elem)
	return e
}

// Fresh reports whether the entry may be served without revalidation.
func (c *Cache) Fresh(e *Entry) bool {
	return c.clock() < e.FreshUntil
}

// Age returns how long the entry has been cached (the Age header a proxy
// attaches when serving it).
func (c *Cache) Age(e *Entry) sim.Duration {
	return c.clock().Sub(e.Received)
}

// ccDirectives parses the Cache-Control directives a 1997 cache honours.
type ccDirectives struct {
	maxAge    time.Duration
	hasMaxAge bool
	noStore   bool
	noCache   bool
	private   bool
}

func parseCacheControl(v string) ccDirectives {
	var d ccDirectives
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		switch {
		case strings.EqualFold(part, "no-store"):
			d.noStore = true
		case strings.EqualFold(part, "no-cache"):
			d.noCache = true
		case strings.EqualFold(part, "private"):
			d.private = true
		case len(part) > 8 && strings.EqualFold(part[:8], "max-age="):
			if n, err := strconv.Atoi(strings.TrimSpace(part[8:])); err == nil && n >= 0 {
				d.maxAge = time.Duration(n) * time.Second
				d.hasMaxAge = true
			}
		}
	}
	return d
}

// Storable reports whether a shared cache may store the response: a 200
// to a GET, not marked uncacheable, and not content-coded (a cache that
// stored coded variants would need Vary handling the 1997 protocol did
// not yet pin down).
func Storable(req *httpmsg.Request, resp *httpmsg.Response) bool {
	if req.Method != "GET" || resp.StatusCode != 200 {
		return false
	}
	if req.Header.Has("Authorization") {
		return false
	}
	if resp.Header.Get("Content-Encoding") != "" {
		return false
	}
	d := parseCacheControl(resp.Header.Get("Cache-Control"))
	return !d.noStore && !d.noCache && !d.private
}

// lifetime computes a response's freshness lifetime from its headers:
// Cache-Control max-age wins, then Expires−Date, then the last-modified
// heuristic. ok is false when no rule applies (the response is stale on
// arrival and every use revalidates).
func lifetime(h *httpmsg.Header) (d time.Duration, heuristic, ok bool) {
	if cc := parseCacheControl(h.Get("Cache-Control")); cc.hasMaxAge {
		return cc.maxAge, false, true
	}
	date, dateErr := httpmsg.ParseDate(h.Get("Date"))
	if exp := h.Get("Expires"); exp != "" && dateErr == nil {
		// An unparseable Expires means "already expired" per RFC 2068.
		t, err := httpmsg.ParseDate(exp)
		if err != nil || !t.After(date) {
			return 0, false, true
		}
		return t.Sub(date), false, true
	}
	if lm := h.Get("Last-Modified"); lm != "" && dateErr == nil {
		t, err := httpmsg.ParseDate(lm)
		if err == nil && date.After(t) {
			d := time.Duration(heuristicFraction * float64(date.Sub(t)))
			if d > heuristicCap {
				d = heuristicCap
			}
			return d, true, true
		}
	}
	return 0, false, false
}

// Store inserts the response under key, computing its freshness lifetime
// and evicting least-recently-used entries to fit. It returns the entry,
// or nil when the response alone exceeds the cache capacity. The caller
// is responsible for checking Storable first.
func (c *Cache) Store(key string, resp *httpmsg.Response) *Entry {
	now := c.clock()
	e := &Entry{
		Key:          key,
		Status:       resp.StatusCode,
		Header:       resp.Header.Clone(),
		Body:         resp.Body,
		ETag:         resp.Header.Get("ETag"),
		LastModified: resp.Header.Get("Last-Modified"),
		Received:     now,
		FreshUntil:   now,
	}
	if d, heur, ok := lifetime(&e.Header); ok {
		e.FreshUntil = now.Add(d)
		e.Heuristic = heur
	}
	if e.Size() > c.capacity {
		return nil
	}
	if old, ok := c.entries[key]; ok {
		c.removeEntry(old)
	}
	for c.used+e.Size() > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeEntry(back.Value.(*Entry))
		c.stats.Evictions++
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.used += e.Size()
	return e
}

// Refresh extends a stale entry's lifetime after a 304: per RFC 2068
// §13.5.3 the validator response's header fields replace the stored
// ones, and the lifetime is recomputed from the merged headers — the
// entity provably did not change, so the freshness clock restarts.
func (c *Cache) Refresh(e *Entry, resp *httpmsg.Response) {
	oldSize := e.Size()
	for _, f := range resp.Header.Fields() {
		e.Header.Set(f.Name, f.Value)
	}
	c.used += e.Size() - oldSize
	if et := e.Header.Get("ETag"); et != "" {
		e.ETag = et
	}
	if lm := e.Header.Get("Last-Modified"); lm != "" {
		e.LastModified = lm
	}
	now := c.clock()
	if d, heur, ok := lifetime(&e.Header); ok {
		e.FreshUntil = now.Add(d)
		e.Heuristic = heur
	} else {
		e.FreshUntil = now
	}
	e.Revalidations++
	c.stats.Refreshes++
}

// Expire marks the entry stale immediately, forcing the next use to
// revalidate. Warm-but-expired priming uses this to model a cache filled
// on an earlier day.
func (c *Cache) Expire(e *Entry) { e.FreshUntil = e.Received }

func (c *Cache) removeEntry(e *Entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.Key)
	c.used -= e.Size()
}
