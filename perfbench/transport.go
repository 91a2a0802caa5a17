package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/server"
)

// connCap is the connection cap of every HTTP hop: one connection per
// CPU, so the generator can never open connections without bound.
func connCap() int { return runtime.NumCPU() }

// dialCounter counts the connections a transport opens, in total and
// open at once per address, so a run can prove it stayed under the cap.
type dialCounter struct {
	dialer net.Dialer

	mu      sync.Mutex
	open    map[string]int
	maxOpen int
	opened  int64
}

func newDialCounter() *dialCounter {
	return &dialCounter{open: make(map[string]int)}
}

func (d *dialCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := d.dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.opened++
	d.open[addr]++
	if d.open[addr] > d.maxOpen {
		d.maxOpen = d.open[addr]
	}
	d.mu.Unlock()
	return &countedConn{Conn: c, d: d, addr: addr}, nil
}

// stats reports the connections opened so far and the most ever open
// at once to one address.
func (d *dialCounter) stats() (opened int64, maxOpen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.opened, d.maxOpen
}

type countedConn struct {
	net.Conn
	d    *dialCounter
	addr string
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.d.mu.Lock()
		c.d.open[c.addr]--
		c.d.mu.Unlock()
	})
	return c.Conn.Close()
}

// hopDials counts the connections of http.DefaultTransport, which the
// router's reverse proxies and the snapshot follower use.
var hopDials = newDialCounter()

// capDefaultTransport caps http.DefaultTransport at connCap connections
// per host. cluster.Router's reverse proxies and maintain.Follower use
// it, so the router→backend and follower→publisher hops obey the same
// cap as the generator.
func capDefaultTransport() {
	t := http.DefaultTransport.(*http.Transport)
	t.MaxConnsPerHost = connCap()
	t.MaxIdleConnsPerHost = connCap()
	t.DialContext = hopDials.dial
}

// newCappedTransport returns the generator's transport.
func newCappedTransport(d *dialCounter) *http.Transport {
	return &http.Transport{
		DialContext:         d.dial,
		MaxConnsPerHost:     connCap(),
		MaxIdleConnsPerHost: connCap(),
		MaxIdleConns:        4 * connCap(),
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// spanHeader carries a request's span ID from the generator through the
// router to the backend, so the three spans of one request join.
const spanHeader = "X-Bench-Span"

// checkTransport is the generator's round tripper. It checks every
// response (status 200, body length equal to the document, the hint
// header is well formed and names stored URLs), counts the responses
// that reached a server and the requests that failed in transport, and
// in a traced run stamps the span header and records the client span.
type checkTransport struct {
	base  http.RoundTripper
	store server.MapStore
	tr    *tracer // nil in a plain run

	completions atomic.Int64
	// errors counts requests that failed in transport. A failed hint
	// prefetch is swallowed by server.Client, so this is where it shows.
	errors atomic.Int64
	bad    atomic.Int64

	mu       sync.Mutex
	problems []string
}

func (c *checkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	beacon := req.Header.Get(server.HeaderPrefetchReportOnly) != ""
	demand := !beacon && req.Header.Get(server.HeaderPrefetchFetch) == ""
	var (
		id      uint64
		gotConn time.Time
	)
	if c.tr != nil {
		id = c.tr.nextID()
		ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
		})
		req = req.Clone(ctx)
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.errors.Add(1)
		return nil, err
	}
	if beacon {
		if resp.StatusCode != http.StatusNoContent {
			c.fail("report beacon answered %d", resp.StatusCode)
		}
		return resp, nil
	}
	c.completions.Add(1)
	want := c.check(req.URL.Path, resp)
	// The body length is checked as the client reads it, so the body
	// is not copied twice.
	resp.Body = &checkedBody{ReadCloser: resp.Body, c: c, path: req.URL.Path, want: want}
	if c.tr != nil {
		c.tr.clientSpan(id, req, demand, start, gotConn, time.Now())
	}
	return resp, nil
}

// checkedBody counts a document body and checks its length at EOF.
type checkedBody struct {
	io.ReadCloser
	c    *checkTransport
	path string
	want int64 // -1 when the response already failed its check
	n    int64
	done bool
}

func (b *checkedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF && !b.done {
		b.done = true
		if b.want >= 0 && b.n != b.want {
			b.c.fail("%s body has %d bytes, the document %d", b.path, b.n, b.want)
		}
	}
	return n, err
}

func (b *checkedBody) Close() error {
	if !b.done && b.want >= 0 {
		b.done = true
		b.c.fail("%s body closed after %d of %d bytes", b.path, b.n, b.want)
	}
	return b.ReadCloser.Close()
}

// check verifies one document response's status, length header and
// hints against the store, and returns the body length to expect (-1
// when the response already failed).
func (c *checkTransport) check(path string, resp *http.Response) int64 {
	if resp.StatusCode != http.StatusOK {
		c.fail("%s answered %d", path, resp.StatusCode)
		return -1
	}
	doc, ok := c.store[path]
	if !ok {
		c.fail("%s answered 200 but is not in the store", path)
		return -1
	}
	if resp.ContentLength != int64(len(doc.Body)) {
		c.fail("%s has Content-Length %d, the document %d bytes", path, resp.ContentLength, len(doc.Body))
	}
	// ParseHints skips malformed elements, so the header must also be
	// exactly what FormatHints makes of the parsed hints.
	header := resp.Header.Get(server.HeaderPrefetch)
	hints := server.ParseHints(header)
	if header != "" && server.FormatHints(hints) != header {
		c.fail("%s has a malformed %s header %q", path, server.HeaderPrefetch, header)
	}
	for _, h := range hints {
		if _, ok := c.store[h.URL]; !ok {
			c.fail("%s hinted %q, which is not stored", path, h.URL)
		}
	}
	return int64(len(doc.Body))
}

func (c *checkTransport) fail(format string, args ...any) {
	c.bad.Add(1)
	c.mu.Lock()
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// report returns the failed checks so far.
func (c *checkTransport) report() (bad int64, problems []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bad.Load(), append([]string(nil), c.problems...)
}
