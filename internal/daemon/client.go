package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/stats"
)

// Client submits work to a running daemon. It implements jobs.Runner,
// so everything that takes a local engine — experiments.RunSuite, the
// cmd/ tools — can transparently target a daemon instead.
type Client struct {
	addr string
	base string
	hc   *http.Client

	// Progress, when non-nil, receives one jobs.Event per completed job
	// of a Run batch, translated from the daemon's stream — the same
	// callback shape the local engine uses, so jobs.PrintProgress works
	// unchanged. Calls arrive on Run's goroutine.
	Progress func(jobs.Event)
}

// OverloadedError reports a batch the daemon refused at admission —
// 429 (full queue) or 503 (draining). Unlike a TransportError the
// daemon is alive and answering: the cluster coordinator puts the job
// back at the front of its queue for any worker, without counting an
// attempt, and pauses only the refused lane for RetryAfter rather than
// marking the worker lost.
type OverloadedError struct {
	Addr       string
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("daemon: worker %s overloaded (HTTP %d, retry after %s): %s",
		e.Addr, e.Status, e.RetryAfter, e.Msg)
}

// TransportError reports a batch that failed between the client and a
// daemon — connect, submit, or a mid-stream disconnect — as opposed to
// a job that ran and returned an error. Work lost to a TransportError
// never completed on the worker's stream, so a coordinator can retry it
// on a surviving replica; a plain job error must not be retried. Addr
// names the worker and Pending the result-cache keys of the jobs still
// unresolved when the transport broke, so retry logs are actionable.
type TransportError struct {
	Addr    string
	Pending []string
	Err     error
}

func (e *TransportError) Error() string {
	if len(e.Pending) == 0 {
		return fmt.Sprintf("daemon: worker %s: %v", e.Addr, e.Err)
	}
	return fmt.Sprintf("daemon: worker %s: %v (pending jobs: %s)",
		e.Addr, e.Err, strings.Join(e.Pending, ", "))
}

func (e *TransportError) Unwrap() error { return e.Err }

// transportErr wraps err with the worker address and the keys of the
// jobs that had no result yet. resolved[i] marks jobs whose outcome the
// stream delivered before breaking.
func (c *Client) transportErr(err error, js []jobs.Job, resolved []bool) error {
	te := &TransportError{Addr: c.addr, Err: err}
	for i := range js {
		if resolved != nil && resolved[i] {
			continue
		}
		key, ok, kerr := jobs.Key(&js[i])
		if kerr != nil || !ok {
			key = js[i].Kernel // best-effort label for keyless jobs
		}
		te.Pending = append(te.Pending, shortKey(key))
	}
	return te
}

// shortKey abbreviates a 64-hex-char cache key for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// parseRetryAfter reads a Retry-After header's delay-seconds form; a
// missing or unparseable header yields a one-second default so retry
// loops never spin hot.
func parseRetryAfter(v string) time.Duration {
	if sec, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	return time.Second
}

// NewClient builds a client for a daemon at addr — "unix:<path>" for a
// unix socket, otherwise a TCP host:port (an explicit http:// base is
// also accepted) — without probing it. Callers that tolerate a dead
// endpoint (the cluster coordinator, which marks an unreachable worker
// down and runs on the rest) use this; interactive tools use Dial for
// its fail-fast probe.
func NewClient(addr string) *Client {
	c := &Client{addr: addr, hc: &http.Client{}}
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		c.base = "http://prosimd" // authority is ignored over a socket
		c.hc.Transport = &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}
	} else if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		c.base = strings.TrimSuffix(addr, "/")
	} else {
		c.base = "http://" + addr
	}
	return c
}

// Addr returns the address the client was built with.
func (c *Client) Addr() string { return c.addr }

// Dial connects to a daemon at addr (NewClient syntax) and verifies it
// responds to /v1/stats so a missing daemon fails fast rather than on
// first batch.
func Dial(addr string) (*Client, error) {
	c := NewClient(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Stats(ctx); err != nil {
		return nil, fmt.Errorf("daemon: no daemon at %s: %w", addr, err)
	}
	return c, nil
}

// Run implements jobs.Runner: submit the batch, relay progress events,
// and return one result per job in job order. Like the local engine, a
// failing job fails the batch (the daemon still finishes the others and
// keeps their results in its cache).
func (c *Client) Run(ctx context.Context, js []jobs.Job) ([]*stats.KernelResult, error) {
	if len(js) == 0 {
		return nil, nil
	}
	req := BatchRequest{Jobs: make([]WireJob, len(js))}
	for i := range js {
		wj, err := FromJob(&js[i])
		if err != nil {
			return nil, fmt.Errorf("daemon: job %d: %w", i, err)
		}
		req.Jobs[i] = wj
	}
	body, err := encodeBatch(&req)
	if err != nil {
		return nil, fmt.Errorf("daemon: encoding batch: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, c.transportErr(fmt.Errorf("submit: %w", err), js, nil)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			return nil, &OverloadedError{
				Addr:       c.addr,
				Status:     resp.StatusCode,
				RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
				Msg:        strings.TrimSpace(string(msg)),
			}
		}
		return nil, fmt.Errorf("daemon: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}

	// resolved[i] flips when the stream reports job i's outcome; jobs
	// still false when the stream breaks are named in the error so a
	// coordinator's retry log says exactly what work was lost where.
	resolved := make([]bool, len(js))
	var batch *Event
	err = readEvents(resp.Body, func(ev *Event) {
		switch ev.Type {
		case "job":
			if ev.Index >= 0 && ev.Index < len(js) {
				resolved[ev.Index] = true
			}
			if c.Progress != nil {
				jev := jobs.Event{
					Kernel:    ev.Kernel,
					Scheduler: ev.Scheduler,
					Done:      ev.Done,
					Total:     ev.Total,
					FromCache: ev.FromCache,
					CacheHits: ev.CacheHits,
					Elapsed:   time.Duration(ev.ElapsedMS) * time.Millisecond,
					ETA:       time.Duration(ev.EtaMS) * time.Millisecond,
				}
				c.Progress(jev)
			}
		case "batch":
			batch = ev
		}
	})
	if err != nil {
		return nil, c.transportErr(fmt.Errorf("stream broke mid-batch: %w", err), js, resolved)
	}
	if batch == nil {
		return nil, c.transportErr(fmt.Errorf("stream ended without results (daemon shut down?)"), js, resolved)
	}
	if len(batch.Results) != len(js) {
		return nil, c.transportErr(fmt.Errorf("got %d results for %d jobs", len(batch.Results), len(js)), js, resolved)
	}
	out := make([]*stats.KernelResult, len(js))
	for i, jr := range batch.Results {
		if jr.Err != "" {
			return nil, fmt.Errorf("daemon: job %d (%s/%s): %s",
				i, req.Jobs[i].Kernel, req.Jobs[i].Scheduler, jr.Err)
		}
		if jr.Result == nil {
			// Neither an outcome nor a failure: the job's result never
			// arrived, so it is pending work, not a finished job.
			for k, jr := range batch.Results {
				resolved[k] = jr.Result != nil || jr.Err != ""
			}
			return nil, c.transportErr(fmt.Errorf("job %d: batch line carries neither a result nor an error", i), js, resolved)
		}
		out[i] = jr.Result
	}
	return out, nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("daemon: stats: %s", resp.Status)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("daemon: stats: %w", err)
	}
	return &st, nil
}

// Health probes the daemon's /v1/health endpoint. Any answer but 200
// is an error: a daemon without the endpoint predates result-cache
// schema 3, so a coordinator must not count it as a live worker.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/health", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, &TransportError{Addr: c.addr, Err: fmt.Errorf("health: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("daemon: health: %s", resp.Status)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("daemon: health: %w", err)
	}
	return &h, nil
}
