package cache

import "repro/internal/httpmsg"

// Flight is one in-progress upstream fetch that concurrent requests for
// the same URL collapse onto: the first miss starts the flight and talks
// to the origin; later misses Join it and share the single response.
// This is the "collapsed forwarding" behaviour that keeps a thundering
// herd of clients from multiplying origin load.
type Flight struct {
	Key string
	// Conditional marks a revalidation flight (the upstream request
	// carries validators). A request whose conditionality differs from
	// the in-progress fetch must not collapse onto it — the shared
	// response would have the wrong shape — so callers check this before
	// joining.
	Conditional bool

	waiters []func(*httpmsg.Response, error)
}

// Join registers a callback for the flight's response. Callbacks run in
// join order when the flight finishes.
func (f *Flight) Join(fn func(*httpmsg.Response, error)) {
	f.waiters = append(f.waiters, fn)
}

// Flight returns the in-progress fetch for key, or nil.
func (c *Cache) Flight(key string) *Flight { return c.flights[key] }

// StartFlight registers a new in-progress fetch for key. It panics if one
// is already in progress — callers must Join instead.
func (c *Cache) StartFlight(key string, conditional bool) *Flight {
	if _, dup := c.flights[key]; dup {
		panic("cache: duplicate flight for " + key)
	}
	f := &Flight{Key: key, Conditional: conditional}
	c.flights[key] = f
	return f
}

// FinishFlight completes the fetch: the flight is deregistered (so a
// waiter re-requesting the URL starts fresh) and every joined callback
// runs in join order with the shared response.
func (c *Cache) FinishFlight(f *Flight, resp *httpmsg.Response, err error) {
	delete(c.flights, f.Key)
	waiters := f.waiters
	f.waiters = nil
	for _, fn := range waiters {
		fn(resp, err)
	}
}
