package live

import (
	"fmt"
	"math"
	"time"

	"sperke/internal/netem"
	"sperke/internal/obs"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

// Result summarizes one simulated broadcast, reproducing the paper's
// measurement protocol: the broadcaster films a clock (T1), the viewer
// displays it (T2), and E2E latency is T2−T1 (§3.4.1).
type Result struct {
	// MeanLatency is the average E2E latency across displayed segments.
	MeanLatency time.Duration
	// MinLatency and MaxLatency bound the per-segment samples.
	MinLatency, MaxLatency time.Duration
	// Samples is the number of displayed segments measured.
	Samples int
	// SkippedSegments counts broadcaster-side frame drops (upload queue
	// overflow).
	SkippedSegments int
	// Stalls counts viewer-side rebuffering events.
	Stalls int
	// FinalQuality is the download rate (bits/s) the viewer ended on.
	FinalQuality float64
	// BytesDownloaded is the viewer-side wire usage.
	BytesDownloaded int64
}

func (r Result) String() string {
	return fmt.Sprintf("mean=%.1fs (min %.1f, max %.1f, n=%d) skips=%d stalls=%d",
		r.MeanLatency.Seconds(), r.MinLatency.Seconds(), r.MaxLatency.Seconds(),
		r.Samples, r.SkippedSegments, r.Stalls)
}

// segment is one packaged piece of the live stream inside the
// simulation.
type segment struct {
	idx int
	// contentStart is the wall time the segment's first scene appeared
	// (capture is live, so content time == wall time at the camera).
	contentStart time.Duration
	bytes        int64
}

// viewerSim is one viewer's half of the pipeline: MPD polling (or push
// reception), serialized downloads with DASH adaptation, prebuffering,
// playback, and latency sampling.
type viewerSim struct {
	clock        *sim.Clock
	p            Platform
	download     *netem.Path
	broadcastDur time.Duration

	est         *netem.EWMA
	buffered    []segment
	stalled     bool
	started     bool
	fetchQueue  []segment
	fetching    bool
	fetchedUpTo int

	res Result
	// latSum accumulates per-segment latency until finish() divides it.
	latSum time.Duration

	// sizeOf, when set, computes a segment's download bytes from the
	// chosen rate — FoV-guided viewers fetch only a tile subset. nil
	// means the whole panorama (rate × segment duration).
	sizeOf func(seg segment, rate float64) int64
	// onDisplay, when set, observes each segment as it starts playing.
	onDisplay func(seg segment, at time.Duration)

	// obsReg and tracer, when set, record per-segment E2E latency
	// (live.e2e_ms), rebuffer events, and fetch-stage spans. Both are
	// nil-safe no-ops by default.
	obsReg *obs.Registry
	tracer *obs.Tracer
}

func newViewerSim(clock *sim.Clock, p Platform, downTrace *netem.BandwidthTrace,
	propagation, broadcastDur time.Duration) *viewerSim {
	v := &viewerSim{
		clock:        clock,
		p:            p,
		download:     netem.NewPath(clock, "downlink", downTrace, propagation, 0),
		broadcastDur: broadcastDur,
		est:          &netem.EWMA{Alpha: 0.4},
	}
	v.res.MinLatency = time.Duration(1<<62 - 1)
	v.est.Add(1e6) // conservative startup estimate, as real players use
	return v
}

// chooseRate picks the download rate: DASH platforms adapt to the
// estimate; push platforms relay the source rate.
func (v *viewerSim) chooseRate() float64 {
	if len(v.p.DownLadder) == 0 {
		return float64(v.p.IngestBitrate)
	}
	budget := v.est.Estimate() * 0.8
	rate := float64(v.p.DownLadder[0])
	for _, r := range v.p.DownLadder {
		if float64(r) <= budget {
			rate = float64(r)
		}
	}
	return rate
}

func (v *viewerSim) playNext() {
	if len(v.buffered) == 0 {
		v.stalled = true
		return
	}
	seg := v.buffered[0]
	v.buffered = v.buffered[1:]
	if v.onDisplay != nil {
		v.onDisplay(seg, v.clock.Now())
	}
	v.obsReg.Histogram("live.e2e_ms").Observe(
		float64(v.clock.Now()-seg.contentStart) / float64(time.Millisecond))
	// Only displays inside the broadcast window count: the paper's
	// measurement stops when the broadcast does, so badly lagging
	// pipelines contribute their in-window samples only.
	if lat := v.clock.Now() - seg.contentStart; v.clock.Now() <= v.broadcastDur {
		v.res.Samples++
		if lat < v.res.MinLatency {
			v.res.MinLatency = lat
		}
		if lat > v.res.MaxLatency {
			v.res.MaxLatency = lat
		}
		v.latSum += lat
	}
	v.clock.Schedule(v.clock.Now()+v.p.SegmentDur, v.playNext)
}

func (v *viewerSim) bufferedMedia() time.Duration {
	return time.Duration(len(v.buffered)) * v.p.SegmentDur
}

func (v *viewerSim) onSegmentDownloaded(seg segment) {
	v.buffered = append(v.buffered, seg)
	if !v.started {
		if v.bufferedMedia() >= v.p.Prebuffer || seg.contentStart+v.p.SegmentDur >= v.broadcastDur {
			v.started = true
			v.playNext()
		}
		return
	}
	if v.stalled {
		v.stalled = false
		v.res.Stalls++
		v.obsReg.Counter("live.viewer.rebuffers").Inc()
		v.playNext()
	}
}

// pumpFetch keeps one segment request in flight so each quality
// decision sees a fresh throughput estimate (pull platforms).
func (v *viewerSim) pumpFetch() {
	if v.fetching || len(v.fetchQueue) == 0 {
		return
	}
	seg := v.fetchQueue[0]
	v.fetchQueue = v.fetchQueue[1:]
	v.fetching = true
	rate := v.chooseRate()
	v.res.FinalQuality = rate
	bytes := int64(rate * v.p.SegmentDur.Seconds() / 8)
	if v.sizeOf != nil {
		bytes = v.sizeOf(seg, rate)
	}
	sp := v.tracer.Start(obs.StageFetch)
	v.download.Transfer(bytes, netem.Reliable, func(d netem.Delivery) {
		sp.End()
		v.est.Add(d.Throughput())
		v.res.BytesDownloaded += d.Bytes
		v.fetching = false
		v.onSegmentDownloaded(seg)
		v.pumpFetch()
	})
}

// fetch requests one segment: queued for pull platforms, written at
// source rate for push platforms (no client-side control).
func (v *viewerSim) fetch(seg segment) {
	if !v.p.PullBased {
		rate := v.chooseRate()
		v.res.FinalQuality = rate
		bytes := int64(rate * v.p.SegmentDur.Seconds() / 8)
		sp := v.tracer.Start(obs.StageFetch)
		v.download.Transfer(bytes, netem.Reliable, func(d netem.Delivery) {
			sp.End()
			v.res.BytesDownloaded += d.Bytes
			v.onSegmentDownloaded(seg)
		})
		return
	}
	v.fetchQueue = append(v.fetchQueue, seg)
	v.pumpFetch()
}

// startPolling arms the pull viewer's MPD refresh loop over the shared
// availability list.
func (v *viewerSim) startPolling(available *[]segment) {
	var poll func()
	poll = func() {
		for _, seg := range *available {
			if seg.idx >= v.fetchedUpTo {
				v.fetchedUpTo = seg.idx + 1
				v.fetch(seg)
			}
		}
		if v.clock.Now() < v.broadcastDur+2*time.Minute {
			v.clock.After(v.p.PollInterval, poll)
		}
	}
	v.clock.After(v.p.PollInterval/2, poll)
}

// finish closes out the viewer's result.
func (v *viewerSim) finish() Result {
	r := v.res
	if r.Samples > 0 {
		r.MeanLatency = v.latSum / time.Duration(r.Samples)
	} else {
		r.MinLatency = 0
	}
	return r
}

// DegradeConfig wires a circuit breaker between the uplink and the
// spatial fallback of §3.4.2: consecutive upload-piece timeouts trip
// the breaker, and while it is not closed the broadcaster uploads only
// the Plan's horizon share of the panorama, so an outage downgrades
// quality rather than stalling the broadcast.
type DegradeConfig struct {
	// Breaker tunes the uplink breaker (zero = defaults).
	Breaker transport.BreakerConfig
	// Plan is the horizon uploaded while degraded.
	Plan HorizonPlan
	// PieceDeadline is the upload time beyond which a piece counts as a
	// breaker failure; 0 defaults to 2× the piece duration.
	PieceDeadline time.Duration
	// ArmFaults, when set, runs with the clock and the upload path
	// before the broadcast starts — the hook fault plans attach through.
	ArmFaults func(clock *sim.Clock, upload *netem.Path)
	// Obs, when set, records the run's pipeline metrics against the sim
	// clock: per-stage spans (span.{encode,upload,transcode,fetch}_ms),
	// the live.e2e_ms latency histogram, breaker transition counters,
	// and fallback activation/degraded-piece counts. Nil disables
	// metrics.
	Obs *obs.Registry
}

// degrader applies a DegradeConfig inside runBroadcast: a watchdog per
// upload piece reports timeouts to the breaker (an uploader detects a
// stalled path by timeout, not by waiting for completion), and the
// steady piece stream doubles as the half-open probe traffic.
type degrader struct {
	clock    *sim.Clock
	br       *transport.Breaker
	plan     HorizonPlan
	deadline time.Duration

	obsReg *obs.Registry
	tracer *obs.Tracer

	degradedPieces, totalPieces int
	wasDegraded                 bool
}

// pieceBytes shrinks a piece to the horizon's share while the breaker
// is not closed.
func (dg *degrader) pieceBytes(full int64) int64 {
	dg.totalPieces++
	if dg.br.State() == transport.BreakerClosed {
		dg.wasDegraded = false
		return full
	}
	if !dg.wasDegraded {
		// One activation per contiguous degraded stretch, not per piece.
		dg.wasDegraded = true
		dg.obsReg.Counter("live.fallback.activations").Inc()
	}
	dg.degradedPieces++
	dg.obsReg.Counter("live.fallback.degraded_pieces").Inc()
	b := int64(float64(full) * dg.plan.Fraction())
	if b < 1 {
		b = 1
	}
	return b
}

// watch submits the transfer with a timeout watchdog attached and
// reports the outcome to the breaker exactly once.
func (dg *degrader) watch(upload *netem.Path, bytes int64, landed func(netem.Delivery)) {
	submitted := dg.clock.Now()
	sp := dg.tracer.Start(obs.StageUpload)
	reported := false
	watchdog := dg.clock.After(dg.deadline, func() {
		reported = true
		dg.br.OnFailure()
	})
	upload.Transfer(bytes, netem.Reliable, func(d netem.Delivery) {
		sp.End()
		watchdog.Cancel()
		if !reported {
			if d.OK && d.Done-submitted <= dg.deadline {
				dg.br.OnSuccess()
			} else {
				dg.br.OnFailure()
			}
		}
		landed(d)
	})
}

// runBroadcast drives one broadcast with the given viewers attached and
// returns the broadcaster-side skip count.
//
// RTMP streams frames continuously as the encoder emits them, not in
// segment-sized bursts: the upload is modeled as 250 ms pieces, and the
// server assembles them into segments. When the uplink cannot drain the
// encoder's rate, the app's queue grows up to its cap and then drops
// frames — the "degraded video quality exhibiting stall and frame
// skips" of §3.4.1.
func runBroadcast(clock *sim.Clock, p Platform, upTrace *netem.BandwidthTrace,
	propagation, broadcastDur time.Duration, viewers []*viewerSim, deg *degrader,
	tracer *obs.Tracer, armFaults func(*sim.Clock, *netem.Path)) (skips int) {
	upload := netem.NewPath(clock, "uplink", upTrace, propagation, 0)
	if armFaults != nil {
		armFaults(clock, upload)
	}

	var available []segment
	onIngest := func(seg segment) {
		ingestAt := clock.Now()
		clock.After(p.ReencodeDelay, func() {
			tracer.Record(obs.StageTranscode, ingestAt, clock.Now())
			available = append(available, seg)
			if !p.PullBased {
				for _, v := range viewers {
					v.fetch(seg)
				}
			}
		})
	}
	if p.PullBased {
		for _, v := range viewers {
			v.startPolling(&available)
		}
	}

	const pieceDur = 250 * time.Millisecond
	piecesPerSeg := int(p.SegmentDur / pieceDur)
	if piecesPerSeg < 1 {
		piecesPerSeg = 1
	}
	nSegs := int(broadcastDur / p.SegmentDur)
	queuedMedia := time.Duration(0)
	arrived := make([]int, nSegs)
	degraded := make([]bool, nSegs)

	pieceLanded := func(segIdx int) {
		arrived[segIdx]++
		if arrived[segIdx] == piecesPerSeg {
			if degraded[segIdx] {
				skips++
			}
			onIngest(segment{
				idx:          segIdx,
				contentStart: time.Duration(segIdx) * p.SegmentDur,
				bytes:        p.IngestBitrate.BytesIn(p.SegmentDur),
			})
		}
	}
	for j := 0; j < nSegs*piecesPerSeg; j++ {
		segIdx := j / piecesPerSeg
		readyAt := time.Duration(j+1)*pieceDur + p.EncodeDelay
		clock.Schedule(readyAt, func() {
			// The encoder held this piece for EncodeDelay before it became
			// ready — recorded retroactively since the sim has no explicit
			// encoder event.
			tracer.Record(obs.StageEncode, readyAt-p.EncodeDelay, readyAt)
			if queuedMedia > p.UploadQueueCap {
				degraded[segIdx] = true
				pieceLanded(segIdx)
				return
			}
			queuedMedia += pieceDur
			bytes := p.IngestBitrate.BytesIn(pieceDur)
			landed := func(netem.Delivery) {
				queuedMedia -= pieceDur
				pieceLanded(segIdx)
			}
			if deg != nil {
				// Spatial fallback is not a skip: the degraded piece still
				// uploads (narrower horizon), so the segment stays whole.
				deg.watch(upload, deg.pieceBytes(bytes), landed)
				return
			}
			upload.Transfer(bytes, netem.Reliable, landed)
		})
	}
	clock.Run()
	return skips
}

// MeasureViewers runs one broadcast with a population of viewers, each
// behind its own downlink, and returns per-viewer results. The latency
// heterogeneity across viewers is the raw material of §3.4.2's
// crowd-sourced live HMP ("the E2E latency across users will likely
// exhibit high variance").
func MeasureViewers(seed int64, p Platform, upBPS float64, downBPS []float64,
	broadcastDur time.Duration) []Result {
	clock := sim.NewClock(seed)
	const propagation = 20 * time.Millisecond
	var upTrace *netem.BandwidthTrace
	if upBPS > 0 {
		upTrace = netem.Constant(upBPS)
	}
	viewers := make([]*viewerSim, len(downBPS))
	for i, bps := range downBPS {
		var tr *netem.BandwidthTrace
		if bps > 0 {
			tr = netem.Constant(bps)
		}
		viewers[i] = newViewerSim(clock, p, tr, propagation, broadcastDur)
	}
	skips := runBroadcast(clock, p, upTrace, propagation, broadcastDur, viewers, nil, nil, nil)
	out := make([]Result, len(viewers))
	for i, v := range viewers {
		out[i] = v.finish()
		out[i].SkippedSegments = skips
	}
	return out
}

// LatencySpread summarizes a viewer population's latency distribution.
type LatencySpread struct {
	Mean, Min, Max time.Duration
	// StdDev is the standard deviation across viewers.
	StdDev time.Duration
}

// Spread computes the population statistics of per-viewer mean
// latencies.
func Spread(results []Result) LatencySpread {
	var s LatencySpread
	if len(results) == 0 {
		return s
	}
	s.Min = time.Duration(1<<62 - 1)
	var sum float64
	for _, r := range results {
		l := r.MeanLatency
		sum += l.Seconds()
		if l < s.Min {
			s.Min = l
		}
		if l > s.Max {
			s.Max = l
		}
	}
	mean := sum / float64(len(results))
	s.Mean = time.Duration(mean * float64(time.Second))
	var varSum float64
	for _, r := range results {
		d := r.MeanLatency.Seconds() - mean
		varSum += d * d
	}
	s.StdDev = time.Duration(math.Sqrt(varSum/float64(len(results))) * float64(time.Second))
	return s
}

// Table2Cell runs the paper's protocol for one platform × condition
// cell: three two-minute broadcasts, averaged (§3.4.1 reports the mean
// of 3 experiments).
func Table2Cell(p Platform, cond Condition) Result {
	var agg Result
	agg.MinLatency = time.Duration(1<<62 - 1)
	const runs = 3
	for i := 0; i < runs; i++ {
		r := Measure(int64(1000+i), p, Opts{Cond: cond}).Result
		agg.MeanLatency += r.MeanLatency
		agg.Samples += r.Samples
		agg.SkippedSegments += r.SkippedSegments
		agg.Stalls += r.Stalls
		if r.MinLatency < agg.MinLatency {
			agg.MinLatency = r.MinLatency
		}
		if r.MaxLatency > agg.MaxLatency {
			agg.MaxLatency = r.MaxLatency
		}
		agg.FinalQuality = r.FinalQuality
		agg.BytesDownloaded += r.BytesDownloaded
	}
	agg.BytesDownloaded /= runs
	agg.MeanLatency /= runs
	return agg
}
