package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"snaptask/internal/geom"
	"snaptask/internal/nav"
	"snaptask/internal/server"
)

// pollWorker is the identity navigation clients poll claims with. The
// dispatcher does not know it, so a poll takes the owner-path admission
// like any claim and then finds no task (404) without ever taking a lease
// from the campaign worker.
const pollWorker = "nav-poller"

// navClient sends navigation traffic and checks every answer.
type navClient struct {
	hc   *http.Client
	base string
	pool []locateInput
	// mapRef, when set, is the exact /v1/map body every fetch must return
	// (the model is not changing). Without it a fetch must decode to a
	// well-formed map.
	mapRef []byte
}

var claimPoll = []byte(`{"workerId":"` + pollWorker + `"}`)

// do sends one operation. It returns the HTTP status (0 on transport
// failure) and a non-nil check error when a 200 answer is wrong.
func (n *navClient) do(ctx context.Context, a arrival) (int, error) {
	var (
		method = http.MethodGet
		path   string
		body   []byte
	)
	switch a.op {
	case opLocate:
		method, path, body = http.MethodPost, "/v1/locate", n.pool[a.idx].body
	case opMap:
		path = "/v1/map"
	case opClaim:
		method, path, body = http.MethodPost, "/v1/task/claim", claimPoll
	case opStatus:
		path = "/v1/status"
	}
	req, err := http.NewRequestWithContext(ctx, method, n.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return 0, nil
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil // failed() classifies it
	}
	return resp.StatusCode, n.check(a, out)
}

// check validates a 200 answer.
func (n *navClient) check(a arrival, body []byte) error {
	switch a.op {
	case opLocate:
		var lr server.LocateResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return fmt.Errorf("locate: %w", err)
		}
		truth := n.pool[a.idx].truth
		if d := geom.V2(lr.X, lr.Y).Dist(truth); d > nav.PositioningError {
			return fmt.Errorf("locate answered %.2f m from the true pose (limit %.1f m)", d, nav.PositioningError)
		}
	case opMap:
		if n.mapRef != nil {
			if !bytes.Equal(body, n.mapRef) {
				return fmt.Errorf("map changed while the model was idle")
			}
			return nil
		}
		var m server.MapResponse
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("map: %w", err)
		}
		if len(m.Rows) != m.Height || (m.Height > 0 && len(m.Rows[0]) != m.Width) {
			return fmt.Errorf("map: malformed %dx%d with %d rows", m.Width, m.Height, len(m.Rows))
		}
	case opClaim:
		var cr server.ClaimResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			return fmt.Errorf("claim: %w", err)
		}
		if !cr.Task.Covered {
			return fmt.Errorf("claim poll was granted a task")
		}
	case opStatus:
		var st server.StatusResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("status: %w", err)
		}
	}
	return nil
}

// loopResult is one open-loop phase's record.
type loopResult struct {
	lat      [len(opNames)]samples // from the intended send time
	late     samples               // how late the pacer released each send
	attempts int
	failures int
	checkErr error
	// due and done count arrivals due and operations completed at the
	// middle and the end of the schedule, for backlog detection.
	dueMid, doneMid, dueEnd, doneEnd int
}

func (r *loopResult) grew() bool { return backlogGrew(r.dueMid, r.doneMid, r.dueEnd, r.doneEnd) }

// openLoop runs sched open-loop over conns senders: a pacer releases each
// arrival at its intended time into an unbounded queue, so a slow server
// builds a backlog instead of slowing the schedule, and each latency is
// measured from the intended time. dur is the schedule length; cancelling
// ctx ends the phase early: requests in flight finish, queued arrivals are
// dropped.
func openLoop(ctx context.Context, sched []arrival, dur time.Duration, conns int,
	do func(context.Context, arrival) (int, error)) *loopResult {
	res := &loopResult{}
	type ticket struct {
		a        arrival
		intended time.Time
	}
	queue := make(chan ticket, len(sched)) // holds the whole schedule: the pacer never blocks
	var (
		mu   sync.Mutex
		done atomic.Int64
		wg   sync.WaitGroup
	)
	// Stopping the phase stops new sends; requests already sent finish,
	// so a stop never shows up as a failed request.
	sendCtx := context.WithoutCancel(ctx)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range queue {
				if ctx.Err() != nil {
					continue // stopped: arrivals still queued are not sent
				}
				status, checkErr := do(sendCtx, tk.a)
				d := time.Since(tk.intended)
				done.Add(1)
				mu.Lock()
				res.attempts++
				res.lat[tk.a.op] = append(res.lat[tk.a.op], d)
				if failed(tk.a.op.String(), status) {
					res.failures++
				}
				if checkErr != nil && res.checkErr == nil {
					res.checkErr = checkErr
				}
				mu.Unlock()
			}
		}()
	}
	due := func(t time.Duration) int {
		n := 0
		for _, a := range sched {
			if a.at <= t {
				n++
			}
		}
		return n
	}
	// The backlog probes run on their own timers so a late pacer cannot
	// delay them.
	probe := func(at time.Duration, dueN, doneN *int) *time.Timer {
		return time.AfterFunc(at, func() {
			n := int(done.Load())
			mu.Lock()
			*dueN, *doneN = due(at), n
			mu.Unlock()
		})
	}
	tMid := probe(dur/2, &res.dueMid, &res.doneMid)
	tEnd := probe(dur, &res.dueEnd, &res.doneEnd)
	defer tMid.Stop()
	defer tEnd.Stop()
pace:
	for _, a := range sched {
		intended := start.Add(a.at)
		if d := time.Until(intended); d > 0 {
			select {
			case <-ctx.Done():
				break pace
			case <-time.After(d):
			}
		}
		res.late = append(res.late, time.Since(intended))
		queue <- ticket{a: a, intended: intended}
	}
	close(queue)
	wg.Wait()
	// A phase shorter than its schedule leaves the end probe unfired.
	if rest := dur - time.Since(start); rest > 0 && ctx.Err() == nil {
		time.Sleep(rest + time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	return res
}
