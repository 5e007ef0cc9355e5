package main

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"synts/internal/fleet"
	"synts/internal/service"
)

// reqOutcome is what the generator saw of one logical request.
type reqOutcome struct {
	due  time.Time // when the schedule said to send it
	sent time.Time // when fleet.Client.Do was called
	done time.Time // when it returned

	status int
	err    error
	shed   string
	body   []byte

	serverNs, routeNs, queueNs, solveNs int64
	warm, coalesced                     bool
	failovers                           int
}

// newClient builds the load generator's client: one process, at most
// nproc HTTP connections, no retries or hedges, so each logical request is
// exactly one POST and connection waits show up in its latency.
func newClient(url string, nproc int) (*fleet.Client, *http.Transport, error) {
	tr := &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		MaxIdleConns:        nproc,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c, err := fleet.NewClient(fleet.ClientConfig{
		URLs:      []string{url},
		Timeout:   30 * time.Second,
		Transport: tr,
	})
	return c, tr, err
}

// runOpenLoop sends bodies[i] at start + i/rps whatever the state of
// earlier requests (an open loop), and returns every request's outcome.
// Latency is later taken from due, so a stall that delays sending is
// charged to the requests it delayed.
func runOpenLoop(c *fleet.Client, bodies [][]byte, rps float64) []reqOutcome {
	out := make([]reqOutcome, len(bodies))
	interval := time.Duration(float64(time.Second) / rps)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := range bodies {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(o *reqOutcome, body []byte) {
			defer wg.Done()
			o.due = due
			o.sent = time.Now()
			res := c.Do(body)
			o.done = time.Now()
			o.status, o.err, o.shed, o.body = res.Status, res.Err, res.Shed, res.Body
			o.failovers = res.Failovers
			if h := res.Header; h != nil {
				o.serverNs = headerInt(h, fleet.HeaderServerNs)
				o.routeNs = headerInt(h, fleet.HeaderRouteNs)
				o.queueNs = headerInt(h, fleet.HeaderQueueNs)
				o.solveNs = headerInt(h, fleet.HeaderSolveNs)
				o.warm = h.Get(service.HeaderWarm) != ""
				o.coalesced = h.Get(service.HeaderCoalesced) != ""
			}
		}(&out[i], bodies[i])
	}
	wg.Wait()
	return out
}

// headerInt parses an integer timing header; -1 when absent.
func headerInt(h http.Header, name string) int64 {
	v := h.Get(name)
	if v == "" {
		return -1
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return -1
	}
	return n
}
