package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sperke/internal/dash"
)

// job is one scheduled request of an open loop: its address and when
// it is due, as an offset from the loop's start.
type job struct {
	addr chunkAddr
	due  time.Duration
}

// loopResult is one phase's outcome. fetchMS holds one latency per
// request in send order (+Inf when it failed); lateMS, for open loops,
// how late the generator handed each request out.
type loopResult struct {
	attempted, failed int
	fetchMS           []float64
	lateMS            []float64
	elapsed           time.Duration
}

// openLoop sends jobs (sorted by due) on their schedule, whatever the
// state of earlier requests, through clientConns workers. A request's
// latency runs from when it was due, so time spent queued behind a
// slow request counts.
func openLoop(ctx context.Context, c *dash.Client, jobs []job) loopResult {
	type dispatched struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends, so the generator never blocks and
	// its lateness measures only its own scheduling.
	queue := make(chan dispatched, len(jobs))
	res := loopResult{attempted: len(jobs), fetchMS: make([]float64, len(jobs)), lateMS: make([]float64, 0, len(jobs))}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				a := jobs[d.i].addr
				if _, err := c.FetchChunk(ctx, a.Video, a.Q, a.Tile, a.Idx); err != nil {
					res.fetchMS[d.i] = math.Inf(1)
					continue
				}
				res.fetchMS[d.i] = ms(time.Since(d.due))
			}
		}()
	}
	for i, j := range jobs {
		due := start.Add(j.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMS = append(res.lateMS, ms(time.Since(due)))
		queue <- dispatched{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	res.failed = countFailed(res.fetchMS)
	return res
}

// closedLoop sends addrs in order through clientConns workers, each
// sending its next request as soon as its last one completes. Latency
// runs from the call.
func closedLoop(ctx context.Context, c *dash.Client, addrs []chunkAddr) loopResult {
	res := loopResult{attempted: len(addrs), fetchMS: make([]float64, len(addrs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(addrs) {
					return
				}
				a := addrs[i]
				t := time.Now()
				if _, err := c.FetchChunk(ctx, a.Video, a.Q, a.Tile, a.Idx); err != nil {
					res.fetchMS[i] = math.Inf(1)
					continue
				}
				res.fetchMS[i] = ms(time.Since(t))
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.failed = countFailed(res.fetchMS)
	return res
}

func countFailed(fetchMS []float64) int {
	n := 0
	for _, x := range fetchMS {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}
