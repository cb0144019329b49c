package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client drives one server over at most conns keep-alive connections
// and counts every connection it opens.
type client struct {
	base  string
	http  *http.Client
	dials atomic.Int64
}

func newClient(addr string, conns int) *client {
	c := &client{base: "http://" + addr}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.http = &http.Client{
		Timeout: 90 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one completed call: status, X-Cache, and the full body.
type reply struct {
	status int
	cache  string
	body   []byte
}

// post sends one request; reqID, when non-negative, rides in the
// X-Bench-Req header so a traced server can join its spans to the
// client's.
func (c *client) post(ctx context.Context, r request, reqID int) (reply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.Path(), bytes.NewReader(r.Body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if reqID >= 0 {
		hr.Header.Set("X-Bench-Req", strconv.Itoa(reqID))
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}, nil
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// outcome is one open-loop request as the client saw it. Times are
// offsets from the stream start; latency runs from the due time, so a
// request that waited for a busy connection is charged the wait.
type outcome struct {
	sent, done time.Duration
	lag        time.Duration // timer lateness when a connection was free at the due time
	status     int
	cache      string
	hash       uint64
	size       int
	body       []byte // kept only where keep asked for it
	err        error
}

func (o outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runOpen replays reqs on their due times over conns connections. Each
// connection takes the next request in due order, sleeps until it is
// due (or sends at once if it is already late), and waits for the last
// response byte. keep(i) says whether request i's body is retained.
func runOpen(ctx context.Context, c *client, reqs []request, conns int, traced bool, keep func(int) bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := reqs[i]
				o := &out[i]
				if wait := r.Due - time.Since(start); wait > 0 {
					sleepPrecise(wait)
					o.lag = time.Since(start) - r.Due
				}
				o.sent = time.Since(start)
				id := -1
				if traced {
					id = i
				}
				rep, err := c.post(ctx, r, id)
				o.done = time.Since(start)
				o.err, o.status, o.cache, o.size = err, rep.status, rep.cache, len(rep.body)
				o.hash = bodyHash(rep.body)
				if keep(i) {
					o.body = rep.body
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepPrecise blocks the calling thread in nanosleep. The runtime's
// timers woke the generator up to a millisecond late (its poller waits
// in whole milliseconds), which was most of a cache hit's latency.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// backlogMax is the largest number of requests that were due but not
// yet sent at any instant: the queue waiting for a free connection.
func backlogMax(reqs []request, outs []outcome) int {
	type ev struct {
		at time.Duration
		d  int
	}
	evs := make([]ev, 0, 2*len(reqs))
	for i, r := range reqs {
		evs = append(evs, ev{r.Due, +1}, ev{outs[i].sent, -1})
	}
	// Sends sort before arrivals at the same instant, so a request sent
	// exactly on time never counts as waiting.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].d < evs[j].d
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.d
		if cur > best {
			best = cur
		}
	}
	return best
}

// closedResult is a closed-loop phase: the 2xx completion times in each
// window of the phase, and the requests sent and failed.
type closedResult struct {
	perWindow [][]time.Duration
	sent      int
	failed    int
}

// rates is each window's throughput: completions after its first one
// divided by the time from its first to its last, so a window's rate
// does not step by whole requests per window.
func (c closedResult) rates() []float64 {
	var out []float64
	for _, done := range c.perWindow {
		if n := len(done); n >= 2 && done[n-1] > done[0] {
			out = append(out, float64(n-1)/(done[n-1]-done[0]).Seconds())
		}
	}
	return out
}

// runClosed keeps conns requests in flight for windows×window, each
// connection sending its next request as soon as the previous one
// completes, and records 2xx completion times per window.
func runClosed(ctx context.Context, c *client, next func() request, conns, windows int, window time.Duration) closedResult {
	var mu sync.Mutex
	res := closedResult{perWindow: make([][]time.Duration, windows)}
	var wg sync.WaitGroup
	start := time.Now()
	d := time.Duration(windows) * window
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				r := next()
				res.sent++
				mu.Unlock()
				rep, err := c.post(ctx, r, -1)
				done := time.Since(start)
				at := int(done / window)
				mu.Lock()
				switch {
				case err != nil || rep.status/100 != 2:
					res.failed++
				case at < windows:
					res.perWindow[at] = append(res.perWindow[at], done)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}
