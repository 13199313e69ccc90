package cache

import (
	"errors"
	"testing"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/sim"
)

// testClock returns a cache on a settable clock.
func testClock(capacity int64) (*Cache, *sim.Time) {
	now := new(sim.Time)
	return New(capacity, func() sim.Time { return *now }), now
}

func resp200(body string, headers ...[2]string) *httpmsg.Response {
	r := httpmsg.NewResponse(httpmsg.Proto11, 200)
	r.Body = []byte(body)
	for _, h := range headers {
		r.Header.Add(h[0], h[1])
	}
	return r
}

func getReq() *httpmsg.Request {
	return &httpmsg.Request{Method: "GET", Target: "/x", Proto: httpmsg.Proto11}
}

func TestFreshnessMaxAge(t *testing.T) {
	c, now := testClock(1 << 20)
	e := c.Store("/x", resp200("body", [2]string{"Cache-Control", "max-age=60"}))
	if e == nil {
		t.Fatal("Store returned nil")
	}
	if e.Heuristic {
		t.Fatal("max-age lifetime marked heuristic")
	}
	if !c.Fresh(e) {
		t.Fatal("entry stale at store time")
	}
	*now = sim.Time(59 * time.Second)
	if !c.Fresh(e) {
		t.Fatal("entry stale before max-age elapsed")
	}
	*now = sim.Time(60 * time.Second)
	if c.Fresh(e) {
		t.Fatal("entry fresh after max-age elapsed")
	}
	if c.Age(e) != 60*time.Second {
		t.Fatalf("Age = %v, want 60s", c.Age(e))
	}
}

func TestFreshnessExpires(t *testing.T) {
	c, _ := testClock(1 << 20)
	e := c.Store("/x", resp200("body",
		[2]string{"Date", "Mon, 07 Jul 1997 10:00:00 GMT"},
		[2]string{"Expires", "Mon, 07 Jul 1997 10:05:00 GMT"},
	))
	if got := e.FreshUntil.Sub(e.Received); got != 5*time.Minute {
		t.Fatalf("Expires lifetime = %v, want 5m", got)
	}
	// Expires at or before Date: stale on arrival.
	e = c.Store("/y", resp200("body",
		[2]string{"Date", "Mon, 07 Jul 1997 10:00:00 GMT"},
		[2]string{"Expires", "Mon, 07 Jul 1997 09:00:00 GMT"},
	))
	if c.Fresh(e) {
		t.Fatal("pre-expired entry reported fresh")
	}
	// Unparseable Expires: likewise stale.
	e = c.Store("/z", resp200("body",
		[2]string{"Date", "Mon, 07 Jul 1997 10:00:00 GMT"},
		[2]string{"Expires", "0"},
	))
	if c.Fresh(e) {
		t.Fatal("entry with bogus Expires reported fresh")
	}
}

func TestFreshnessHeuristic(t *testing.T) {
	c, _ := testClock(1 << 20)
	// Entity last modified 5 days before Date: 10% = 12 hours.
	e := c.Store("/x", resp200("body",
		[2]string{"Date", "Mon, 07 Jul 1997 10:00:00 GMT"},
		[2]string{"Last-Modified", "Wed, 02 Jul 1997 10:00:00 GMT"},
	))
	if !e.Heuristic {
		t.Fatal("fallback lifetime not marked heuristic")
	}
	if got := e.FreshUntil.Sub(e.Received); got != 12*time.Hour {
		t.Fatalf("heuristic lifetime = %v, want 12h", got)
	}
	// A year-old entity hits the 24h cap.
	e = c.Store("/y", resp200("body",
		[2]string{"Date", "Mon, 07 Jul 1997 10:00:00 GMT"},
		[2]string{"Last-Modified", "Mon Jul  8 10:00:00 1996"}, // asctime form
	))
	if got := e.FreshUntil.Sub(e.Received); got != 24*time.Hour {
		t.Fatalf("capped heuristic lifetime = %v, want 24h", got)
	}
	// No usable headers: stale on arrival.
	e = c.Store("/z", resp200("body"))
	if c.Fresh(e) {
		t.Fatal("entry without expiry information reported fresh")
	}
}

func TestStorable(t *testing.T) {
	req := getReq()
	cases := []struct {
		name string
		req  *httpmsg.Request
		resp *httpmsg.Response
		want bool
	}{
		{"plain 200", req, resp200("x"), true},
		{"non-200", req, httpmsg.NewResponse(httpmsg.Proto11, 404), false},
		{"no-store", req, resp200("x", [2]string{"Cache-Control", "no-store"}), false},
		{"no-cache", req, resp200("x", [2]string{"Cache-Control", "no-cache"}), false},
		{"private", req, resp200("x", [2]string{"Cache-Control", "private, max-age=60"}), false},
		{"content-coded", req, resp200("x", [2]string{"Content-Encoding", "deflate"}), false},
	}
	head := getReq()
	head.Method = "HEAD"
	cases = append(cases, struct {
		name string
		req  *httpmsg.Request
		resp *httpmsg.Response
		want bool
	}{"HEAD", head, resp200("x"), false})
	auth := getReq()
	auth.Header.Add("Authorization", "Basic x")
	cases = append(cases, struct {
		name string
		req  *httpmsg.Request
		resp *httpmsg.Response
		want bool
	}{"authorized", auth, resp200("x"), false})
	for _, tc := range cases {
		if got := Storable(tc.req, tc.resp); got != tc.want {
			t.Errorf("Storable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	body := make([]byte, 100)
	probe := New(1<<20, func() sim.Time { return 0 })
	r := httpmsg.NewResponse(httpmsg.Proto11, 200)
	r.Body = body
	entrySize := probe.Store("/probe", r).Size()

	c, _ := testClock(3 * entrySize)
	for _, k := range []string{"/a", "/b", "/c"} {
		r := httpmsg.NewResponse(httpmsg.Proto11, 200)
		r.Body = body
		if c.Store(k, r) == nil {
			t.Fatalf("Store(%s) rejected", k)
		}
	}
	if c.Len() != 3 || c.Bytes() != 3*entrySize {
		t.Fatalf("cache holds %d entries / %d bytes, want 3 / %d", c.Len(), c.Bytes(), 3*entrySize)
	}
	// Touch /a so /b is the LRU victim.
	if c.Get("/a") == nil {
		t.Fatal("Get(/a) missed")
	}
	r = httpmsg.NewResponse(httpmsg.Proto11, 200)
	r.Body = body
	c.Store("/d", r)
	if c.Get("/b") != nil {
		t.Fatal("LRU victim /b survived")
	}
	for _, k := range []string{"/a", "/c", "/d"} {
		if c.Get(k) == nil {
			t.Fatalf("entry %s evicted unexpectedly", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats().Evictions)
	}
	// An entry larger than the whole cache is refused without disturbing
	// the rest.
	big := httpmsg.NewResponse(httpmsg.Proto11, 200)
	big.Body = make([]byte, 4*entrySize)
	if c.Store("/huge", big) != nil {
		t.Fatal("oversized entry stored")
	}
	if c.Len() != 3 {
		t.Fatalf("oversized store disturbed cache: %d entries", c.Len())
	}
}

func TestStoreReplaces(t *testing.T) {
	c, _ := testClock(1 << 20)
	c.Store("/x", resp200("first"))
	c.Store("/x", resp200("second, longer body"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replacing store, want 1", c.Len())
	}
	if got := string(c.Get("/x").Body); got != "second, longer body" {
		t.Fatalf("body = %q", got)
	}
}

func TestRefresh(t *testing.T) {
	c, now := testClock(1 << 20)
	e := c.Store("/x", resp200("body", [2]string{"Cache-Control", "max-age=10"}))
	*now = sim.Time(30 * time.Second)
	if c.Fresh(e) {
		t.Fatal("entry fresh after lifetime")
	}
	nm := httpmsg.NewResponse(httpmsg.Proto11, 304)
	nm.Header.Add("Cache-Control", "max-age=20")
	nm.Header.Add("ETag", `"v2"`)
	c.Refresh(e, nm)
	if !c.Fresh(e) {
		t.Fatal("entry stale after refresh")
	}
	if got := e.FreshUntil.Sub(*now); got != 20*time.Second {
		t.Fatalf("refreshed lifetime = %v, want 20s", got)
	}
	if e.ETag != `"v2"` || e.Header.Get("ETag") != `"v2"` {
		t.Fatalf("refresh did not update validators: %q", e.ETag)
	}
	if e.Revalidations != 1 || c.Stats().Refreshes != 1 {
		t.Fatal("revalidation counters not updated")
	}
	// A 304 with no expiry headers falls back to the stored ones,
	// restarting the stored max-age from now.
	*now = sim.Time(60 * time.Second)
	c.Refresh(e, httpmsg.NewResponse(httpmsg.Proto11, 304))
	if got := e.FreshUntil.Sub(*now); got != 20*time.Second {
		t.Fatalf("fallback refresh lifetime = %v, want 20s", got)
	}
}

func TestFlightCollapse(t *testing.T) {
	c, _ := testClock(1 << 20)
	if c.Flight("/x") != nil {
		t.Fatal("flight present before start")
	}
	f := c.StartFlight("/x", false)
	if c.Flight("/x") != f {
		t.Fatal("flight not registered")
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		f.Join(func(resp *httpmsg.Response, err error) {
			if resp.StatusCode != 200 || err != nil {
				t.Errorf("waiter %d got %v/%v", i, resp, err)
			}
			order = append(order, i)
		})
	}
	if len(f.waiters) != 3 {
		t.Fatalf("%d waiters, want 3", len(f.waiters))
	}
	c.FinishFlight(f, resp200("shared"), nil)
	if c.Flight("/x") != nil {
		t.Fatal("flight still registered after finish")
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("waiters ran out of order: %v", order)
	}
	// Error flights deliver the error to every waiter.
	f = c.StartFlight("/x", true)
	wantErr := errors.New("upstream reset")
	var got error
	f.Join(func(_ *httpmsg.Response, err error) { got = err })
	c.FinishFlight(f, nil, wantErr)
	if got != wantErr {
		t.Fatalf("error flight delivered %v", got)
	}
}
