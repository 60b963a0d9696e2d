package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"sperke/internal/serve"
)

// ladderRepeats is how many times each rung runs; the table shows
// medians.
const ladderRepeats = 3

// runLadder runs crowd-vod's sessions at seed with each layer switched
// on in turn — the session simulator alone (no HTTP leg), then a
// direct dash.Server over the catalog store across TCP, then the wire
// cluster — and prints wall time, requests per second and fetch p99
// per rung. It checks that no fetch failed and every response matched
// its address, and gates nothing.
func runLadder(ctx context.Context, seed int64, sc scale, out io.Writer) error {
	c := newCrowdVOD(seed, sc)
	type rung struct {
		name  string
		build func() (*stack, error)
	}
	rungs := []rung{
		{"sim-only", nil},
		{"direct-http", func() (*stack, error) {
			return buildStack(stackConfig{catalog: c.cat, videos: c.byID, originBudget: 256 << 20})
		}},
		{"wire-cluster", func() (*stack, error) { return c.build(false, nil) }},
	}
	var fetches int64
	walls := make([]float64, len(rungs))
	p99s := make([]float64, len(rungs))
	for ri, r := range rungs {
		var ws, ps []float64
		for i := 0; i < ladderRepeats; i++ {
			wall, p99, n, err := runRung(ctx, c.engineConfig(0, nil), r.build)
			if err != nil {
				return fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			ws, ps = append(ws, wall), append(ps, p99)
			if r.build != nil {
				fetches = n
			}
		}
		walls[ri], p99s[ri] = median(ws), median(ps)
	}
	fmt.Fprintf(out, "# crowd-vod ladder: %d viewers, seed %d, median of %d runs; every rung makes the same %d chunk requests (sim-only only simulates them)\n",
		sc.crowdViewers, seed, ladderRepeats, fetches)
	fmt.Fprintf(out, "%-14s %9s %10s %9s %12s\n", "rung", "wall_s", "req_per_s", "p99_ms", "wall_delta_s")
	for ri, r := range rungs {
		p99 := "-"
		if r.build != nil {
			p99 = fmt.Sprintf("%.3f", p99s[ri])
		}
		delta := walls[ri]
		if ri > 0 {
			delta -= walls[ri-1]
		}
		fmt.Fprintf(out, "%-14s %9.3f %10.0f %9s %12.3f\n", r.name, walls[ri], float64(fetches)/walls[ri], p99, delta)
	}
	return nil
}

// runRung runs the engine once, on a stack from build when it is not
// nil, and returns the wall time in seconds, the fetch p99 in ms and
// the number of chunk fetches.
func runRung(ctx context.Context, cfg serve.EngineConfig, build func() (*stack, error)) (wall, p99 float64, fetches int64, err error) {
	var s *stack
	if build != nil {
		if s, err = build(); err != nil {
			return 0, 0, 0, err
		}
		defer s.close()
		cfg.Client = s.client
	}
	eng, err := serve.NewEngine(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	res := eng.Run(ctx)
	wall = time.Since(start).Seconds()
	if s == nil {
		return wall, 0, 0, nil
	}
	if res.HTTPErrors > 0 {
		return 0, 0, 0, fmt.Errorf("%d fetch errors", res.HTTPErrors)
	}
	if bad, first := s.ct.ex.mismatched(); bad > 0 {
		return 0, 0, 0, fmt.Errorf("%d responses did not match their address; first: %s", bad, first)
	}
	s.ct.ex.mu.Lock()
	p99 = quantile(s.ct.ex.totalMS, 0.99)
	s.ct.ex.mu.Unlock()
	return wall, p99, res.HTTPFetches, nil
}
