package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"sperke/internal/dash"
)

//go:embed digests.json
var digestsJSON []byte

// options are one benchmark run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spanDir  string
	scale    scale
	// wrapOrigin, when set, wraps every stack's origin (tests only).
	wrapOrigin func(originSource) originSource
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems explain correct=false; printed on their own line.
	problems []string
}

// runBench runs one workload for opts.seconds of measured load, round
// after round, each on a freshly built stack, then re-checks a sample
// of bodies against committed digests. An unmeasured warm-up round
// comes first, so lazy set-up and heap growth are paid before timing.
// It reports end-to-end metrics, or with opts.trace the per-layer ones
// from the traced rounds, which alternate with untraced rounds so the
// tracing overhead is measured in the same run.
func runBench(ctx context.Context, opts options, info io.Writer) (result, error) {
	w, err := newWorkload(opts.workload, opts.seed, opts.scale)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	var spans *spanFile
	if opts.trace {
		spans, err = createSpanFile(opts.spanDir, fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
		if err != nil {
			return result{}, err
		}
	}
	var (
		measured, cpu     time.Duration
		attempted, failed int
		originFetches     int64
		p50s, p99s, caps  []float64
		setups            []float64
		samples           int
		rounds            int
		lay               = newLayers()
		tracedP50         []float64
		untracedP50       []float64
	)
	for r := -1; ; r++ {
		if r >= opts.scale.minRounds && measured.Seconds() >= opts.seconds && (!opts.trace || r%2 == 0) {
			break
		}
		traced := opts.trace && r >= 0 && r%2 == 1
		rs, err := runRound(ctx, w, opts, r, traced, lay, spans)
		if err != nil {
			return result{}, err
		}
		res.problems = append(res.problems, rs.out.problems...)
		setups = append(setups, rs.setup.Seconds())
		more, problems, err := sampleSetups(w, opts)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, more...)
		res.problems = append(res.problems, problems...)
		if r < 0 {
			continue
		}
		out := rs.out
		rounds++
		measured += out.measured
		cpu += out.cpu
		attempted += out.attempted
		failed += out.failed
		originFetches += rs.originFetches
		samples += len(out.fetchMS)
		p50 := finite(quantile(out.fetchMS, 0.5))
		p50s = append(p50s, p50)
		p99s = append(p99s, finite(quantile(out.fetchMS, 0.99)))
		caps = append(caps, out.capacity)
		if traced {
			tracedP50 = append(tracedP50, p50)
		} else {
			untracedP50 = append(untracedP50, p50)
		}
	}
	if spans != nil {
		if err := spans.close(); err != nil {
			return result{}, err
		}
	}

	res.problems = append(res.problems, checkDigests(ctx, w, opts)...)
	if attempted == 0 {
		res.problems = append(res.problems, "no request was attempted")
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = len(res.problems) == 0
	summary, err := json.Marshal(map[string]any{
		"workload": opts.workload, "seed": opts.seed, "rounds": rounds,
		"latency_samples": samples, "setups": len(setups), "measured_s": measured.Seconds(),
		"round_p50_ms": p50s, "round_p99_ms": p99s, "round_capacity_rps": caps,
	})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(info, string(summary))

	if !opts.trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["fetch_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["fetch_p99_ms"] = metric{median(p99s), "ms"}
		res.Metrics["capacity_rps"] = metric{median(caps), "1/s"}
		res.Metrics["origin_fetches_per_kreq"] = metric{1000 * float64(originFetches) / float64(max(attempted, 1)), "1/kreq"}
		res.Metrics["cpu_us_per_req"] = metric{float64(cpu.Microseconds()) / float64(max(attempted, 1)), "us"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return res, nil
	}
	lay.finish(res.Metrics, w)
	overhead := 0.0
	if u := median(untracedP50); u > 0 {
		overhead = 100 * (median(tracedP50)/u - 1)
	}
	res.Metrics["trace.overhead_pct"] = metric{overhead, "%"}
	return res, nil
}

// sampleSetups builds and closes the workload's stack, with no load,
// until it has made opts.scale.setupsPerRound builds or spent
// opts.scale.setupSpan building (at least one build), and returns each
// build's time. Runs call it after every round, so setup_s samples the
// whole run rather than its first milliseconds.
func sampleSetups(w workload, opts options) (setups []float64, problems []string, err error) {
	for spent := time.Duration(0); len(setups) < opts.scale.setupsPerRound &&
		(len(setups) == 0 || spent < opts.scale.setupSpan); {
		baseline := runtime.NumGoroutine()
		start := time.Now()
		s, err := w.build(false, opts.wrapOrigin)
		if err != nil {
			return nil, nil, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		s.close()
		if n := settleGoroutines(baseline, 3*time.Second); n > 0 {
			problems = append(problems, fmt.Sprintf("%d goroutines outlived a set-up stack", n))
		}
	}
	return setups, problems, nil
}

// roundStats is one round as the runner saw it.
type roundStats struct {
	out           roundOut
	setup         time.Duration
	originFetches int64
}

// runRound prepares the round's references, builds a stack (timed as
// set-up), drives one round of load on it, checks the round's
// invariants, folds a traced round into lay and spans, and tears the
// stack down, checking that its goroutines end.
func runRound(ctx context.Context, w workload, opts options, r int, traced bool, lay *layers, spans *spanFile) (roundStats, error) {
	if err := w.prepare(ctx, r); err != nil {
		return roundStats{}, err
	}
	baseline := runtime.NumGoroutine()
	start := time.Now()
	s, err := w.build(traced, opts.wrapOrigin)
	if err != nil {
		return roundStats{}, err
	}
	rs := roundStats{setup: time.Since(start)}
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	stopSampler := startInflightSampler(s, traced)
	out, err := w.measure(ctx, s, r)
	inflightMax := stopSampler()
	if err != nil {
		s.close()
		return roundStats{}, err
	}
	var gap int64
	if s.clu != nil {
		s.clu.DrainWarms()
		if gap = s.accountingGap(); gap != 0 {
			out.problems = append(out.problems, fmt.Sprintf(
				"round %d: front-door request count minus client attempts is %d, want 0", r, gap))
		}
	}
	if bad, first := s.ct.ex.mismatched(); bad > 0 {
		out.problems = append(out.problems, fmt.Sprintf("round %d: %d responses did not match their address; first: %s",
			r, bad, first))
	}
	rs.originFetches = s.originFetches()
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		sp := s.tr.finish()
		lay.addRound(s, out, sp, &ms0, &ms1, inflightMax, gap)
		if err := spans.write(r, sp); err != nil {
			s.close()
			return roundStats{}, err
		}
	}
	s.close()
	if n := settleGoroutines(baseline, 3*time.Second); n > 0 {
		out.problems = append(out.problems, fmt.Sprintf("round %d: %d goroutines outlived the stack", r, n))
		lay.leaked = max(lay.leaked, n)
	}
	rs.out = out
	return rs, nil
}

// startInflightSampler polls the edges' in-flight gauges every
// millisecond during a traced cluster round; the returned stop function
// ends it and yields the largest value seen.
func startInflightSampler(s *stack, traced bool) func() int64 {
	if !traced || s.clu == nil {
		return func() int64 { return 0 }
	}
	nodes := s.clu.Nodes()
	var peak int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, n := range nodes {
					peak = max(peak, n.InFlight())
				}
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait() // orders the sampler's writes to peak before the read
		return peak
	}
}

// loadDigests parses the committed digests: workload → key → SHA-256
// of the chunk body.
func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// checkDigests fetches a seeded sample of the committed keys through a
// fresh stack of the workload's own shape, twice each (the first fetch
// takes the miss path, the second the cache), and compares every body
// with its committed SHA-256. A body that changed but still carries a
// self-consistent CRC passes the client and fails here.
func checkDigests(ctx context.Context, w workload, opts options) []string {
	all, err := loadDigests()
	if err != nil {
		return []string{err.Error()}
	}
	want := all[opts.workload]
	if len(want) == 0 {
		return []string{"digests.json holds no keys for " + opts.workload}
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(opts.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(opts.scale.digestSample, len(keys))]

	baseline := runtime.NumGoroutine()
	s, err := w.build(false, opts.wrapOrigin)
	if err != nil {
		return []string{"digest stack: " + err.Error()}
	}
	var problems []string
	for _, k := range keys {
		var a chunkAddr
		if _, err := fmt.Sscanf(k, "%s %d %d %d", &a.Video, &a.Q, &a.Tile, &a.Idx); err != nil {
			problems = append(problems, fmt.Sprintf("digests.json key %q: %v", k, err))
			continue
		}
		for pass := 0; pass < 2; pass++ {
			sum, err := fetchDigest(ctx, s, a)
			if err != nil {
				problems = append(problems, fmt.Sprintf("digest fetch %s: %v", a.path(), err))
				break
			}
			if sum != want[k] {
				problems = append(problems, fmt.Sprintf("body of %s (fetch %d) has SHA-256 %s, committed %s", a.path(), pass+1, sum, want[k]))
				break
			}
		}
	}
	if bad, first := s.ct.ex.mismatched(); bad > 0 {
		problems = append(problems, "digest fetches: "+first)
	}
	s.close()
	if n := settleGoroutines(baseline, 3*time.Second); n > 0 {
		problems = append(problems, fmt.Sprintf("%d goroutines outlived the digest stack", n))
	}
	return problems
}

func digestKey(a chunkAddr) string { return fmt.Sprintf("%s %d %d %d", a.Video, a.Q, a.Tile, a.Idx) }

// fetchDigest GETs one chunk's raw body through the viewer's transport
// and returns its SHA-256.
func fetchDigest(ctx context.Context, s *stack, a chunkAddr) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.baseURL+a.path(), nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.HTTPClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// genDigests computes the committed digests from the reference
// synthesis (dash.BuildChunkBody), 64 seeded keys per workload.
func genDigests() ([]byte, error) {
	out := map[string]map[string]string{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, tinyScale)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(20171130))
		m := map[string]string{}
		for len(m) < 64 {
			a := w.universe(rng)
			body, err := dash.BuildChunkBody(w.videos()[a.Video], a.Q, a.Tile, a.Idx, false)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(body)
			m[digestKey(a)] = hex.EncodeToString(sum[:])
		}
		out[name] = m
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// tinyScale is the smallest load that still runs every phase; the
// benchmark's tests and digest generation use it.
var tinyScale = scale{
	crowdViewers:   2,
	coldRate:       400,
	coldOpen:       100 * time.Millisecond,
	coldClosed:     40,
	herdViewers:    3,
	herdOpen:       2,
	herdClosed:     2,
	herdGap:        20 * time.Millisecond,
	herdWindow:     5 * time.Millisecond,
	minRounds:      2,
	setupsPerRound: 1,
	digestSample:   4,
}
