//go:build go1.24

package mux_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"

	"repro/internal/mux"
	"repro/internal/webgen"
)

// TestWriteScheduleAgainstGo fetches the Microscape page and its inline
// objects twice, with Go's own HTTP/2 (net/http, unencrypted, over
// net.Pipe) and with two sessions of ours, and counts each side's
// writes and WINDOW_UPDATE frames with our frame reader. Our client
// sends the inline requests as one corked batch, as the robot does, and
// our server writes once per arrival, as it does when computing a
// response takes no time. Ours must write no more often than Go's and
// send no more WINDOW_UPDATEs: the simulated framed modes should carry
// no writer overhead a production HTTP/2 stack does not.
func TestWriteScheduleAgainstGo(t *testing.T) {
	site, err := webgen.Microscape(webgen.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	goClient, goServer := goSchedule(t, site)
	ourClient, ourServer := ourSchedule(t, site)
	t.Logf("Go:   client %d writes %d WINDOW_UPDATEs, server %d writes %d WINDOW_UPDATEs",
		goClient.writes, goClient.updates, goServer.writes, goServer.updates)
	t.Logf("ours: client %d writes %d WINDOW_UPDATEs, server %d writes %d WINDOW_UPDATEs",
		ourClient.writes, ourClient.updates, ourServer.writes, ourServer.updates)
	for _, c := range []struct {
		what      string
		ours, gos int
	}{
		{"client writes", ourClient.writes, goClient.writes},
		{"server writes", ourServer.writes, goServer.writes},
		{"WINDOW_UPDATEs", ourClient.updates + ourServer.updates, goClient.updates + goServer.updates},
	} {
		if c.ours > c.gos {
			t.Errorf("%s per page: ours %d, Go's %d", c.what, c.ours, c.gos)
		}
	}
}

// tally counts one direction's writes and the WINDOW_UPDATE frames they
// carry.
type tally struct {
	mu       sync.Mutex
	preface  int // client preface bytes still to skip
	fr       mux.FrameReader
	writes   int
	updates  int
	frameErr error
}

func (c *tally) add(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	n := min(c.preface, len(b))
	c.preface -= n
	frames, err := c.fr.Feed(b[n:])
	if err != nil && c.frameErr == nil {
		c.frameErr = err
	}
	for _, f := range frames {
		if f.Type == mux.FrameWindowUpdate {
			c.updates++
		}
	}
}

// ourSchedule runs our client and server sessions back to back.
func ourSchedule(t *testing.T, site *webgen.Site) (client, server *tally) {
	client = &tally{preface: len(mux.Preface)}
	server = &tally{}
	var toServer, toClient [][]byte
	c := mux.NewClient(func(b []byte) { client.add(b); toServer = append(toServer, bytes.Clone(b)) })
	s := mux.NewServer(func(b []byte) { server.add(b); toClient = append(toClient, bytes.Clone(b)) })
	s.OnHeaders = func(st *mux.Stream, fields []mux.Field, _ bool) {
		obj, _ := site.Object(fieldValue(fields, ":path"))
		s.WriteHeaders(st, []mux.Field{{Name: ":status", Value: "200"}, {Name: "content-type", Value: obj.ContentType}}, false)
		s.WriteData(st, obj.Body, true)
	}
	done := 0
	c.OnData = func(st *mux.Stream, _ []byte, end bool) {
		if !end {
			return
		}
		done++
		if st.ID == 1 {
			c.Cork()
			for _, link := range site.InlineLinks("/") {
				c.OpenStream(request(link), true, 0)
			}
			c.Uncork()
		}
	}
	c.Start()
	c.OpenStream(request("/"), true, 0)
	for len(toServer) > 0 || len(toClient) > 0 {
		if len(toServer) > 0 {
			b := toServer[0]
			toServer = toServer[1:]
			s.Cork()
			s.Feed(b)
			s.Uncork()
		}
		if len(toClient) > 0 {
			b := toClient[0]
			toClient = toClient[1:]
			c.Feed(b)
		}
	}
	if want := 1 + len(site.InlineLinks("/")); done != want {
		t.Fatalf("our sessions completed %d of %d streams", done, want)
	}
	return client, server
}

func request(path string) []mux.Field {
	return []mux.Field{{Name: ":method", Value: "GET"}, {Name: ":path", Value: path}, {Name: ":authority", Value: "microscape"}}
}

func fieldValue(fields []mux.Field, name string) string {
	for _, f := range fields {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// goSchedule fetches the page, then every inline object at once, with
// net/http's HTTP/2 client and server over one net.Pipe.
func goSchedule(t *testing.T, site *webgen.Site) (client, server *tally) {
	client = &tally{preface: len(mux.Preface)}
	server = &tally{}
	cEnd, sEnd := net.Pipe()
	var h2c http.Protocols
	h2c.SetUnencryptedHTTP2(true)
	srv := &http.Server{
		Protocols: &h2c,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			obj, ok := site.Object(r.URL.Path)
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", obj.ContentType)
			w.Write(obj.Body)
		}),
	}
	ln := &pipeListener{conn: &countedConn{Conn: sEnd, t: server}, closed: make(chan struct{})}
	go srv.Serve(ln)
	defer srv.Close()
	tr := &http.Transport{
		Protocols: &h2c,
		DialContext: func(context.Context, string, string) (net.Conn, error) {
			return &countedConn{Conn: cEnd, t: client}, nil
		},
	}
	defer tr.CloseIdleConnections()
	get := func(path string) {
		resp, err := (&http.Client{Transport: tr}).Get("http://microscape" + path)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get("/")
	var wg sync.WaitGroup
	for _, link := range site.InlineLinks("/") {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(link)
		}()
	}
	wg.Wait()
	client.mu.Lock()
	defer client.mu.Unlock()
	server.mu.Lock()
	defer server.mu.Unlock()
	for _, c := range []*tally{client, server} {
		if c.frameErr != nil {
			t.Fatalf("our frame reader rejected Go's frames: %v", c.frameErr)
		}
	}
	// Copies: the connections keep counting while they close.
	return &tally{writes: client.writes, updates: client.updates},
		&tally{writes: server.writes, updates: server.updates}
}

// countedConn counts each Write in its tally.
type countedConn struct {
	net.Conn
	t *tally
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.t.add(b)
	return c.Conn.Write(b)
}

// pipeListener accepts its one connection, then blocks until closed.
type pipeListener struct {
	once   sync.Once
	conn   net.Conn
	closed chan struct{}
	shut   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	var c net.Conn
	l.once.Do(func() { c = l.conn })
	if c != nil {
		return c, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *pipeListener) Close() error {
	l.shut.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
