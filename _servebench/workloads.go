package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sperke/internal/core"
	"sperke/internal/dash"
	"sperke/internal/hmp"
	"sperke/internal/media"
	"sperke/internal/serve"
	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

// scale sizes the workloads' load. The videos themselves are fixed
// (digests.json holds bodies of them), so a scale changes how much is
// requested, never what a chunk is.
type scale struct {
	// crowd-vod: viewers per round.
	crowdViewers int
	// cold-origin: open-loop rate and length, then closed-loop requests,
	// per round.
	coldRate   float64
	coldOpen   time.Duration
	coldClosed int
	// live-herd: viewers, boundaries sent on schedule and then back to
	// back, boundary spacing and the window after a boundary that a
	// viewer's requests land in.
	herdViewers int
	herdOpen    int
	herdClosed  int
	herdGap     time.Duration
	herdWindow  time.Duration
	// minRounds is the fewest measured rounds a run makes. After each
	// round the stack is built and closed, with no load, up to
	// setupsPerRound times or until setupSpan of building has gone by;
	// setup_s is the median of those builds and the rounds' own.
	minRounds      int
	setupsPerRound int
	setupSpan      time.Duration
	// digestSample is how many committed digests a run re-checks.
	digestSample int
}

// fullScale is the benchmark's load, sized on a 2-core VM: a crowd-vod
// round (~20k fetches) and a cold-origin round (1000 req/s for 1s, about
// a sixth of capacity, then 6000 back to back) each take 2-4s, so a
// 40s run holds a dozen rounds for medians; the 1000 req/s open loop
// and the 200ms herd window keep the schedules well below capacity.
var fullScale = scale{
	crowdViewers:   32,
	coldRate:       1000,
	coldOpen:       time.Second,
	coldClosed:     6000,
	herdViewers:    24,
	herdOpen:       12,
	herdClosed:     28,
	herdGap:        250 * time.Millisecond,
	herdWindow:     200 * time.Millisecond,
	minRounds:      3,
	setupsPerRound: 10,
	setupSpan:      100 * time.Millisecond,
	digestSample:   16,
}

// workload is one traffic mix. prepare computes a round's untimed
// references, build is the program's set-up for the round (timed as
// setup_s), and measure drives the round's load.
type workload interface {
	prepare(ctx context.Context, round int) error
	build(traced bool, wrap func(originSource) originSource) (*stack, error)
	measure(ctx context.Context, s *stack, round int) (roundOut, error)
	// universe draws an address from the chunks the workload can ask
	// for; digests and the byte-identity oracle sample it.
	universe(rng *rand.Rand) chunkAddr
	videos() map[string]*media.Video
}

// roundOut is what one round's load produced.
type roundOut struct {
	attempted, failed int
	// fetchMS are the closed loop's per-request times from the call
	// (+Inf failed): the end-to-end latency.
	fetchMS []float64
	// openMS are an open loop's per-request times from when each was
	// due, and lateMS how late the generator sent each.
	openMS, lateMS []float64
	// capacity is successful requests per second of the closed loop.
	capacity float64
	// measured and cpu are the wall and process CPU time of the load.
	measured, cpu time.Duration
	// simShare and sessionsPerS describe the session simulator
	// (crowd-vod only).
	simShare, sessionsPerS float64
	problems               []string
}

// openThenClosed is the round of a workload that runs an open loop and
// then a closed-loop capacity phase: its end-to-end latency and
// capacity come from the closed phase, the open loop's timings go to
// the load generator's per-layer metrics.
func openThenClosed(open, capPhase loopResult, cpu time.Duration) roundOut {
	return roundOut{
		cpu:       cpu,
		attempted: open.attempted + capPhase.attempted,
		failed:    open.failed + capPhase.failed,
		fetchMS:   capPhase.fetchMS,
		openMS:    open.fetchMS,
		lateMS:    open.lateMS,
		capacity:  float64(capPhase.attempted-capPhase.failed) / capPhase.elapsed.Seconds(),
		measured:  open.elapsed + capPhase.elapsed,
	}
}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	switch name {
	case "crowd-vod":
		return newCrowdVOD(seed, sc), nil
	case "cold-origin":
		return newColdOrigin(seed, sc), nil
	case "live-herd":
		return newLiveHerd(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want crowd-vod, cold-origin or live-herd)", name)
}

var workloadNames = []string{"crowd-vod", "cold-origin", "live-herd"}

func catalogOf(vs ...*media.Video) (*dash.Catalog, map[string]*media.Video) {
	cat := dash.NewCatalog()
	byID := make(map[string]*media.Video, len(vs))
	for _, v := range vs {
		if err := cat.Add(v); err != nil {
			panic(fmt.Sprintf("fixed benchmark video %s is invalid: %v", v.ID, err))
		}
		byID[v.ID] = v
	}
	return cat, byID
}

func roundRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// viewerBase is the engine BaseSeed of a round's viewers. Viewer i
// draws motion from base+i and attention from base+i+60 (see
// serve.SessionTraces), so bases 128 apart give every (seed, round)
// its own population: consecutive seeds do not share viewers.
func viewerBase(seed int64, round int) int64 {
	return (seed*1024 + int64(round) + 1) * 128
}

// crowdVOD is the paper's on-demand shape: FoV-guided viewers of one
// title, each a full session simulation, whose every chunk fetch also
// crosses the wire cluster. Its working set fits the edges, so most
// requests are edge hits and synthesis stays a small share. Each round
// brings a new population of viewers.
type crowdVOD struct {
	sc    scale
	seed  int64
	video *media.Video
	cat   *dash.Catalog
	byID  map[string]*media.Video
	// ref is the prepared round's no-HTTP QoE.
	ref serve.Aggregate
}

func crowdVideo() *media.Video {
	return &media.Video{
		ID:             "crowd",
		Duration:       60 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.DefaultLadder,
		Encoding:       media.EncodingAVC,
	}
}

func newCrowdVOD(seed int64, sc scale) *crowdVOD {
	c := &crowdVOD{sc: sc, seed: seed, video: crowdVideo()}
	c.cat, c.byID = catalogOf(c.video)
	return c
}

func (c *crowdVOD) engineConfig(round int, client *dash.Client) serve.EngineConfig {
	return serve.EngineConfig{
		Video:    c.video,
		Sessions: c.sc.crowdViewers,
		Workers:  clientConns,
		BaseSeed: viewerBase(c.seed, round),
		Mode:     core.FoVGuided,
		Client:   client,
	}
}

// prepare runs the round's sessions with no HTTP leg. The engine's
// QoE comes from the simulated path alone, so the served round must
// reproduce it exactly.
func (c *crowdVOD) prepare(ctx context.Context, round int) error {
	eng, err := serve.NewEngine(c.engineConfig(round, nil))
	if err != nil {
		return fmt.Errorf("crowd-vod reference engine: %w", err)
	}
	res := eng.Run(ctx)
	for _, sr := range res.Sessions {
		if sr.Err != nil {
			return fmt.Errorf("crowd-vod reference run: %w", sr.Err)
		}
	}
	c.ref = res.Agg
	return nil
}

func (c *crowdVOD) videos() map[string]*media.Video { return c.byID }

func (c *crowdVOD) universe(rng *rand.Rand) chunkAddr {
	return chunkAddr{Video: c.video.ID, Q: rng.Intn(c.video.Qualities()),
		Tile: rng.Intn(c.video.Grid.Tiles()), Idx: rng.Intn(c.video.NumChunks())}
}

func (c *crowdVOD) build(traced bool, wrap func(originSource) originSource) (*stack, error) {
	return buildStack(stackConfig{catalog: c.cat, videos: c.byID, cluster: true,
		originBudget: 256 << 20, traced: traced, wrapOrigin: wrap})
}

func (c *crowdVOD) measure(ctx context.Context, s *stack, round int) (roundOut, error) {
	eng, err := serve.NewEngine(c.engineConfig(round, s.client))
	if err != nil {
		return roundOut{}, fmt.Errorf("crowd-vod engine: %w", err)
	}
	cpu0, start := cpuTime(), time.Now()
	res := eng.Run(ctx)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	out := roundOut{
		attempted: int(res.HTTPFetches),
		failed:    int(res.HTTPErrors),
		measured:  wall,
		cpu:       cpu,
	}
	for _, sr := range res.Sessions {
		if sr.Err != nil {
			out.problems = append(out.problems, sr.Err.Error())
		}
	}
	if res.Agg != c.ref {
		out.problems = append(out.problems, fmt.Sprintf(
			"crowd-vod round %d QoE %+v differs from the no-HTTP reference %+v", round, res.Agg, c.ref))
	}
	ex := &s.ct.ex
	ex.mu.Lock()
	out.fetchMS = append([]float64(nil), ex.totalMS...)
	busy := ex.busy
	ex.mu.Unlock()
	out.capacity = float64(out.attempted) / wall.Seconds()
	out.simShare = 1 - float64(busy)/(float64(wall)*clientConns)
	out.sessionsPerS = float64(c.sc.crowdViewers) / wall.Seconds()
	return out, nil
}

// coldOrigin sends keys drawn uniformly over a multi-title catalog to
// a plain dash.Server whose store budget is far below the working set,
// so nearly every request misses, synthesizes and evicts. No cluster
// sits in the path.
type coldOrigin struct {
	sc   scale
	seed int64
	vids []*media.Video
	cat  *dash.Catalog
	byID map[string]*media.Video
}

func coldVideos() []*media.Video {
	vs := make([]*media.Video, 8)
	for i := range vs {
		vs[i] = &media.Video{
			ID:             fmt.Sprintf("cold-%d", i),
			Duration:       120 * time.Second,
			ChunkDuration:  2 * time.Second,
			Grid:           tiling.GridCellular,
			ProjectionName: "equirectangular",
			Ladder:         media.DefaultLadder[3:], // 720p, 1080p, 4K
			Encoding:       media.EncodingAVC,
		}
	}
	return vs
}

func newColdOrigin(seed int64, sc scale) *coldOrigin {
	c := &coldOrigin{sc: sc, seed: seed, vids: coldVideos()}
	c.cat, c.byID = catalogOf(c.vids...)
	return c
}

func (c *coldOrigin) prepare(context.Context, int) error { return nil }

func (c *coldOrigin) videos() map[string]*media.Video { return c.byID }

func (c *coldOrigin) universe(rng *rand.Rand) chunkAddr {
	v := c.vids[rng.Intn(len(c.vids))]
	return chunkAddr{Video: v.ID, Q: rng.Intn(v.Qualities()),
		Tile: rng.Intn(v.Grid.Tiles()), Idx: rng.Intn(v.NumChunks())}
}

func (c *coldOrigin) build(traced bool, wrap func(originSource) originSource) (*stack, error) {
	return buildStack(stackConfig{catalog: c.cat, videos: c.byID,
		originBudget: 32 << 20, traced: traced, wrapOrigin: wrap})
}

func (c *coldOrigin) measure(ctx context.Context, s *stack, round int) (roundOut, error) {
	rng := roundRNG(c.seed, round)
	var jobs []job
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / c.sc.coldRate * float64(time.Second))
		if t >= c.sc.coldOpen {
			break
		}
		jobs = append(jobs, job{addr: c.universe(rng), due: t})
	}
	closed := make([]chunkAddr, c.sc.coldClosed)
	for i := range closed {
		closed[i] = c.universe(rng)
	}
	cpu0 := cpuTime()
	open := openLoop(ctx, s.client, jobs)
	capPhase := closedLoop(ctx, s.client, closed)
	return openThenClosed(open, capPhase, cpuTime()-cpu0), nil
}

// liveHerd replays a live event's herds: after each chunk boundary
// every viewer asks for the tiles visible from its head orientation
// at the new index, within a short window, so each index starts cold
// and same-key requests pile up on the router. The cluster pre-warms
// from a crowd prior built over the same viewers' traces.
type liveHerd struct {
	sc      scale
	seed    int64
	video   *media.Video
	cat     *dash.Catalog
	byID    map[string]*media.Video
	quality int
	traces  []*trace.HeadTrace
	// tiles[v][i] are viewer v's visible tiles at chunk index i.
	tiles [][][]int
}

func liveVideo() *media.Video {
	return &media.Video{
		ID:             "live",
		Duration:       80 * time.Second,
		ChunkDuration:  2 * time.Second,
		Grid:           tiling.GridCellular,
		ProjectionName: "equirectangular",
		Ladder:         media.LiveLadder,
		Encoding:       media.EncodingAVC,
	}
}

func newLiveHerd(seed int64, sc scale) *liveHerd {
	l := &liveHerd{sc: sc, seed: seed, video: liveVideo()}
	l.quality = l.video.Qualities() - 1
	l.cat, l.byID = catalogOf(l.video)
	l.traces = serve.SessionTraces(serve.EngineConfig{Video: l.video, Sessions: sc.herdViewers, BaseSeed: viewerBase(seed, 0)})
	n := sc.herdOpen + sc.herdClosed
	l.tiles = make([][][]int, len(l.traces))
	for v, tr := range l.traces {
		l.tiles[v] = make([][]int, n)
		for i := 0; i < n; i++ {
			for _, t := range tiling.VisibleTiles(l.video.Grid, sphere.Equirectangular{}, tr.At(l.video.ChunkStart(i)), sphere.DefaultFoV) {
				l.tiles[v][i] = append(l.tiles[v][i], int(t))
			}
		}
	}
	return l
}

func (l *liveHerd) prepare(context.Context, int) error { return nil }

func (l *liveHerd) videos() map[string]*media.Video { return l.byID }

func (l *liveHerd) universe(rng *rand.Rand) chunkAddr {
	return chunkAddr{Video: l.video.ID, Q: l.quality,
		Tile: rng.Intn(l.video.Grid.Tiles()), Idx: rng.Intn(l.video.NumChunks())}
}

func (l *liveHerd) build(traced bool, wrap func(originSource) originSource) (*stack, error) {
	prior := hmp.BuildHeatmap(l.video.Grid, sphere.Equirectangular{}, sphere.DefaultFoV,
		l.video.ChunkDuration, l.video.Duration, l.traces)
	return buildStack(stackConfig{catalog: l.cat, videos: l.byID, cluster: true,
		prior: prior, fanout: 4, originBudget: 256 << 20, traced: traced, wrapOrigin: wrap})
}

// measure sends the first herdOpen indices as an open loop on the
// compressed boundary schedule, then the next herdClosed back to back
// as a closed loop, whose rate is the round's capacity.
func (l *liveHerd) measure(ctx context.Context, s *stack, round int) (roundOut, error) {
	rng := roundRNG(l.seed, round)
	b := l.sc.herdOpen
	var jobs []job
	for i := 0; i < b; i++ {
		for v := range l.tiles {
			due := time.Duration(i)*l.sc.herdGap + time.Duration(rng.Float64()*float64(l.sc.herdWindow))
			for _, t := range l.tiles[v][i] {
				jobs = append(jobs, job{addr: chunkAddr{Video: l.video.ID, Q: l.quality, Tile: t, Idx: i}, due: due})
			}
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].due < jobs[j].due })
	var closed []chunkAddr
	for i := b; i < b+l.sc.herdClosed; i++ {
		for v := range l.tiles {
			for _, t := range l.tiles[v][i] {
				closed = append(closed, chunkAddr{Video: l.video.ID, Q: l.quality, Tile: t, Idx: i})
			}
		}
	}
	cpu0 := cpuTime()
	open := openLoop(ctx, s.client, jobs)
	// Let the pre-warm queue finish the open phase's work, so the
	// capacity phase measures its own requests only.
	s.clu.DrainWarms()
	capPhase := closedLoop(ctx, s.client, closed)
	return openThenClosed(open, capPhase, cpuTime()-cpu0), nil
}
