package live

import (
	"math/rand"

	"sperke/internal/hmp"
	"testing"
	"time"

	"sperke/internal/sphere"
	"sperke/internal/tiling"
	"sperke/internal/trace"
)

func cell(t *testing.T, p Platform, cond Condition) Result {
	t.Helper()
	return Measure(42, p, Opts{Cond: cond}).Result
}

var unconstrained = Condition{Up: 0, Down: 0}

func TestBaseLatencyOrdering(t *testing.T) {
	// Table 2 row 1: Facebook < Periscope < YouTube, near 9.2/12.4/22.2s.
	fb := cell(t, Facebook, unconstrained)
	ps := cell(t, Periscope, unconstrained)
	yt := cell(t, YouTube, unconstrained)
	if !(fb.MeanLatency < ps.MeanLatency && ps.MeanLatency < yt.MeanLatency) {
		t.Fatalf("ordering: fb=%v ps=%v yt=%v", fb.MeanLatency, ps.MeanLatency, yt.MeanLatency)
	}
	within := func(got time.Duration, want float64) bool {
		return got.Seconds() > want*0.7 && got.Seconds() < want*1.3
	}
	if !within(fb.MeanLatency, 9.2) {
		t.Fatalf("Facebook base %v, want ≈9.2s", fb.MeanLatency)
	}
	if !within(ps.MeanLatency, 12.4) {
		t.Fatalf("Periscope base %v, want ≈12.4s", ps.MeanLatency)
	}
	if !within(yt.MeanLatency, 22.2) {
		t.Fatalf("YouTube base %v, want ≈22.2s", yt.MeanLatency)
	}
}

func TestBaseRunHasNoSkipsOrStalls(t *testing.T) {
	for _, p := range Platforms {
		r := cell(t, p, unconstrained)
		if r.SkippedSegments != 0 {
			t.Errorf("%s: %d skips on unconstrained network", p.Name, r.SkippedSegments)
		}
		if r.Samples == 0 {
			t.Errorf("%s: no samples", p.Name)
		}
	}
}

func TestConstrainedUplinkInflatesLatency(t *testing.T) {
	// Table 2 row 4 (0.5 Mbps up): every platform inflates strongly and
	// Periscope inflates most (53.4s in the paper).
	cond := Condition{Up: 0.5e6}
	var lat []time.Duration
	for _, p := range Platforms {
		base := cell(t, p, unconstrained)
		got := cell(t, p, cond)
		if got.MeanLatency < base.MeanLatency+3*time.Second {
			t.Errorf("%s: 0.5Mbps uplink barely moved latency: %v → %v", p.Name, base.MeanLatency, got.MeanLatency)
		}
		if got.SkippedSegments == 0 {
			t.Errorf("%s: no frame skips on a starved uplink", p.Name)
		}
		lat = append(lat, got.MeanLatency)
	}
	// Periscope (index 1) worst.
	if !(lat[1] > lat[0] && lat[1] > lat[2]) {
		t.Fatalf("Periscope not worst under uplink constraint: %v", lat)
	}
}

func TestMildUplinkConstraint(t *testing.T) {
	// Table 2 row 2 (2 Mbps up): YouTube (ingest below the cap) is flat;
	// Facebook rises slightly; Periscope rises more.
	cond := Condition{Up: 2e6}
	yt0, yt := cell(t, YouTube, unconstrained), cell(t, YouTube, cond)
	if d := (yt.MeanLatency - yt0.MeanLatency).Abs(); d > 2*time.Second {
		t.Fatalf("YouTube at 2Mbps up moved %v, want ≈flat", d)
	}
	ps0, ps := cell(t, Periscope, unconstrained), cell(t, Periscope, cond)
	fb0, fb := cell(t, Facebook, unconstrained), cell(t, Facebook, cond)
	psInfl := ps.MeanLatency - ps0.MeanLatency
	fbInfl := fb.MeanLatency - fb0.MeanLatency
	if psInfl <= fbInfl {
		t.Fatalf("Periscope inflation %v not above Facebook %v at 2Mbps up", psInfl, fbInfl)
	}
}

func TestConstrainedDownlinkAdaptationVsPush(t *testing.T) {
	// Table 2 rows 3/5: DASH platforms adapt the download quality; the
	// push platform cannot and suffers more at 2 Mbps down.
	cond := Condition{Down: 2e6}
	fb := cell(t, Facebook, cond)
	if fb.FinalQuality > 2e6 {
		t.Fatalf("Facebook did not adapt below the 2Mbps link: %v", fb.FinalQuality)
	}
	ps0, ps := cell(t, Periscope, unconstrained), cell(t, Periscope, cond)
	fb0 := cell(t, Facebook, unconstrained)
	if (ps.MeanLatency - ps0.MeanLatency) <= (fb.MeanLatency - fb0.MeanLatency) {
		t.Fatalf("push platform should inflate more than adaptive one at 2Mbps down")
	}
}

func TestSeverelyConstrainedDownlink(t *testing.T) {
	// Table 2 row 5 (0.5 Mbps down): YouTube's deep ladder (down to
	// 144p ≈ 0.2Mbps) recovers; Facebook's 720p floor cannot fit and
	// stalls accumulate.
	cond := Condition{Down: 0.5e6}
	yt := cell(t, YouTube, cond)
	fb := cell(t, Facebook, cond)
	if yt.FinalQuality > 0.5e6 {
		t.Fatalf("YouTube final quality %v does not fit the link", yt.FinalQuality)
	}
	if fb.MeanLatency <= yt.MeanLatency {
		t.Fatalf("Facebook (no low rung) %v should lag YouTube %v at 0.5Mbps down",
			fb.MeanLatency, yt.MeanLatency)
	}
	if fb.Stalls == 0 {
		t.Fatal("Facebook with a 1.5Mbps floor on a 0.5Mbps link never stalled")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	a := Measure(7, Facebook, Opts{Duration: time.Minute, Cond: Condition{Up: 2e6}}).Result
	b := Measure(7, Facebook, Opts{Duration: time.Minute, Cond: Condition{Up: 2e6}}).Result
	if a != b {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestTable2CellAggregates(t *testing.T) {
	r := Table2Cell(Facebook, unconstrained)
	if r.Samples == 0 || r.MeanLatency == 0 {
		t.Fatalf("empty aggregate %+v", r)
	}
	if r.MinLatency > r.MeanLatency || r.MeanLatency > r.MaxLatency {
		t.Fatalf("latency bounds inconsistent: %+v", r)
	}
}

func TestPlanHorizonUnconstrained(t *testing.T) {
	plan := PlanHorizon(nil, nil, 0, 1.5, 120)
	if plan.SpanDeg != 360 {
		t.Fatalf("unconstrained plan narrowed to %v°", plan.SpanDeg)
	}
}

func TestPlanHorizonNarrowsWithUplink(t *testing.T) {
	hint := sphere.Orientation{Yaw: 30}
	half := PlanHorizon(&hint, nil, 0, 0.5, 120)
	if half.SpanDeg != 180 {
		t.Fatalf("50%% uplink → span %v°, want 180", half.SpanDeg)
	}
	if half.Center.Yaw != 30 {
		t.Fatalf("manual hint ignored: center %v", half.Center)
	}
	// The floor holds: even a starved uplink keeps the stage visible.
	tiny := PlanHorizon(&hint, nil, 0, 0.1, 120)
	if tiny.SpanDeg != 120 {
		t.Fatalf("span floor violated: %v°", tiny.SpanDeg)
	}
}

func TestHorizonCovers(t *testing.T) {
	plan := HorizonPlan{Center: sphere.Orientation{Yaw: 0}, SpanDeg: 180}
	fov := sphere.FoV{Width: 100, Height: 90}
	if !plan.Covers(sphere.Orientation{Yaw: 0}, fov) {
		t.Fatal("center view not covered")
	}
	if !plan.Covers(sphere.Orientation{Yaw: 39}, fov) {
		t.Fatal("inside-edge view not covered")
	}
	if plan.Covers(sphere.Orientation{Yaw: 41}, fov) {
		t.Fatal("outside-edge view covered")
	}
	if plan.Covers(sphere.Orientation{Yaw: -180}, fov) {
		t.Fatal("behind view covered")
	}
	// A span narrower than the FoV covers nothing fully.
	slim := HorizonPlan{SpanDeg: 80}
	if slim.Covers(sphere.Orientation{}, fov) {
		t.Fatal("80° span cannot cover a 100° FoV")
	}
}

func TestSpatialFallbackBeatsQualityReduceWhenCrowdIsConcentrated(t *testing.T) {
	// E9: a concert-like crowd (95% looking at the stage ±40°) under a
	// 50% uplink: spatial fallback preserves full quality for nearly
	// everyone; quality reduction hits everyone.
	rng := rand.New(rand.NewSource(5))
	var views []sphere.Orientation
	for i := 0; i < 200; i++ {
		yaw := rng.NormFloat64() * 20
		if rng.Float64() < 0.05 {
			yaw = rng.Float64()*360 - 180 // a few wanderers
		}
		views = append(views, sphere.Orientation{Yaw: yaw}.Normalized())
	}
	fov := sphere.DefaultFoV
	hint := sphere.Orientation{}
	plan := PlanHorizon(&hint, nil, 0, 0.5, 160)
	sf := EvaluateFallback(UploadSpatialFallback, plan, 0.5, views, fov)
	qr := EvaluateFallback(UploadQualityReduce, plan, 0.5, views, fov)
	fx := EvaluateFallback(UploadFixed, plan, 0.5, views, fov)
	if sf.MeanFoVQuality <= qr.MeanFoVQuality {
		t.Fatalf("spatial fallback %0.2f not above quality-reduce %0.2f", sf.MeanFoVQuality, qr.MeanFoVQuality)
	}
	if fx.SkippedFrac < 0.4 {
		t.Fatalf("fixed mode skipped only %.2f at 50%% uplink", fx.SkippedFrac)
	}
}

func TestSpatialFallbackLosesWhenCrowdIsDispersed(t *testing.T) {
	// The trade-off is real: with viewers spread over the full sphere,
	// narrowing the horizon blanks many of them and quality reduction
	// wins — which is why the horizon decision needs the crowd signal.
	rng := rand.New(rand.NewSource(6))
	var views []sphere.Orientation
	for i := 0; i < 200; i++ {
		views = append(views, sphere.Orientation{Yaw: rng.Float64()*360 - 180}.Normalized())
	}
	plan := PlanHorizon(nil, nil, 0, 0.5, 160)
	sf := EvaluateFallback(UploadSpatialFallback, plan, 0.5, views, sphere.DefaultFoV)
	qr := EvaluateFallback(UploadQualityReduce, plan, 0.5, views, sphere.DefaultFoV)
	if sf.MeanFoVQuality >= qr.MeanFoVQuality {
		t.Fatalf("dispersed crowd: spatial %0.2f should lose to quality-reduce %0.2f",
			sf.MeanFoVQuality, qr.MeanFoVQuality)
	}
}

func TestUploadModeString(t *testing.T) {
	if UploadFixed.String() != "fixed" || UploadQualityReduce.String() != "quality-reduce" ||
		UploadSpatialFallback.String() != "spatial-fallback" {
		t.Fatal("bad mode strings")
	}
}

func makeLiveViewers(t *testing.T, n int, dur time.Duration) ([]Viewer, *trace.Attention) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	att := trace.GenerateAttention(rand.New(rand.NewSource(18)), dur)
	pop := trace.NewPopulation(rng, n)
	traces := pop.Sessions(rng, att, dur)
	viewers := make([]Viewer, n)
	for i := range viewers {
		// Latencies spread like Table 2's variance: 8–40 s.
		viewers[i] = Viewer{
			Trace:   traces[i],
			Latency: time.Duration(8+rng.Float64()*32) * time.Second,
		}
	}
	return viewers, att
}

func TestCrowdLivePredictorUsesOnlyAheadViewers(t *testing.T) {
	viewers, _ := makeLiveViewers(t, 10, 30*time.Second)
	pred := &CrowdLivePredictor{Ahead: viewers, TargetLatency: 0}
	if _, ok := pred.PredictContent(10 * time.Second); ok {
		t.Fatal("predictor used viewers that are not ahead")
	}
	pred.TargetLatency = time.Hour
	if _, ok := pred.PredictContent(10 * time.Second); !ok {
		t.Fatal("predictor found no ahead viewers despite all being ahead")
	}
}

func TestCrowdLiveHMPBeatsStaticAtLongHorizon(t *testing.T) {
	// E10: for a high-latency viewer needing a long prefetch horizon,
	// the reactions of low-latency viewers predict better than assuming
	// the head stays put.
	const dur = 60 * time.Second
	viewers, att := makeLiveViewers(t, 14, dur)
	// Target: a fresh viewer with the highest latency.
	rng := rand.New(rand.NewSource(77))
	target := Viewer{
		Trace:   trace.Generate(rng, trace.UserProfile{ID: "lagger", SpeedScale: 1}, att, dur),
		Latency: 45 * time.Second,
	}
	pred := &CrowdLivePredictor{Ahead: viewers, TargetLatency: target.Latency}
	rep := LiveHMPAccuracy(pred, target, sphere.DefaultFoV, dur, 3*time.Second)
	// Heads mostly fixate, so the static baseline is strong overall; the
	// crowd's value is recovering the samples where the head actually
	// moved — the exact failures FoV-guided prefetch suffers.
	if rep.MovedFrac <= 0 {
		t.Fatal("target never moved; test scenario degenerate")
	}
	if rep.CrowdRecovery < 0.2 {
		t.Fatalf("crowd recovered only %.2f of static misses", rep.CrowdRecovery)
	}
	if rep.CrowdHit < 0.35 {
		t.Fatalf("crowd hit rate %.2f implausibly low", rep.CrowdHit)
	}
}

func TestLiveHeatmapBuilds(t *testing.T) {
	viewers, _ := makeLiveViewers(t, 6, 20*time.Second)
	h := LiveHeatmap(tilingGrid(), sphere.Equirectangular{}, sphere.DefaultFoV,
		2*time.Second, 20*time.Second, viewers)
	if h.Intervals() != 10 {
		t.Fatalf("intervals = %d", h.Intervals())
	}
}

func tilingGrid() tiling.Grid { return tiling.GridCellular }

func TestMeasureViewersHeterogeneousLatency(t *testing.T) {
	// The §3.4.2 premise: viewers behind different downlinks experience
	// different E2E latencies, with high variance across the population.
	downs := []float64{0, 8e6, 3e6, 1.8e6, 1.6e6}
	results := MeasureViewers(42, Facebook, 0, downs, 2*time.Minute)
	if len(results) != len(downs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Samples == 0 {
			t.Fatalf("viewer %d displayed nothing", i)
		}
	}
	// The unconstrained viewer must beat the 1.6 Mbps one (who cannot
	// even carry Facebook's 1.5 Mbps floor comfortably).
	if results[0].MeanLatency >= results[4].MeanLatency {
		t.Fatalf("fast viewer %v not ahead of slow viewer %v",
			results[0].MeanLatency, results[4].MeanLatency)
	}
	spread := Spread(results)
	if spread.Max <= spread.Min {
		t.Fatal("no latency spread across heterogeneous viewers")
	}
	if spread.StdDev < 200*time.Millisecond {
		t.Fatalf("stddev %v — population too homogeneous for the §3.4.2 premise", spread.StdDev)
	}
	if spread.Mean < spread.Min || spread.Mean > spread.Max {
		t.Fatalf("spread inconsistent: %+v", spread)
	}
}

func TestMeasureViewersSharedUplinkState(t *testing.T) {
	// All viewers watch the same broadcast: broadcaster-side skips are
	// identical across the population.
	results := MeasureViewers(7, Facebook, 0.5e6, []float64{0, 0}, time.Minute)
	if results[0].SkippedSegments != results[1].SkippedSegments {
		t.Fatal("viewers disagree about broadcaster skips")
	}
	if results[0].SkippedSegments == 0 {
		t.Fatal("starved uplink produced no skips")
	}
}

func TestSpreadEmpty(t *testing.T) {
	if s := Spread(nil); s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty spread %+v", s)
	}
}

func TestMeasureViewersMatchesSingleViewer(t *testing.T) {
	// A population of one behaves exactly like Measure.
	single := Measure(42, YouTube, Opts{Duration: time.Minute, Cond: Condition{Down: 2e6}}).Result
	pop := MeasureViewers(42, YouTube, 0, []float64{2e6}, time.Minute)
	if len(pop) != 1 {
		t.Fatal("population size")
	}
	got := pop[0]
	if got.MeanLatency != single.MeanLatency || got.Samples != single.Samples ||
		got.Stalls != single.Stalls || got.BytesDownloaded != single.BytesDownloaded {
		t.Fatalf("population-of-one diverged:\n%+v\n%+v", got, single)
	}
}

func TestFoVGuidedLiveSavesBandwidthAndCovers(t *testing.T) {
	// §3.4.2's integration claim: live broadcast benefits from the
	// tiling primitives — a FoV-guided live viewer downloads a fraction
	// of the panorama while still covering what they look at.
	const dur = 2 * time.Minute
	g := tiling.GridCellular
	proj := sphere.Equirectangular{}
	att := trace.GenerateAttention(rand.New(rand.NewSource(61)), dur)
	head := trace.Generate(rand.New(rand.NewSource(62)),
		trace.UserProfile{ID: "v", SpeedScale: 1}, att, dur)
	// Crowd heat from earlier viewers of the same broadcast.
	pop := trace.NewPopulation(rand.New(rand.NewSource(63)), 8)
	sessions := pop.Sessions(rand.New(rand.NewSource(64)), att, dur)
	heat := hmp.BuildHeatmap(g, proj, sphere.DefaultFoV, Facebook.SegmentDur, dur, sessions)

	full := Measure(42, Facebook, Opts{Duration: dur, Cond: unconstrained}).Result
	guided, stats := MeasureFoVGuidedLive(42, Facebook, g, proj, sphere.DefaultFoV,
		head, heat, unconstrained, dur)

	if stats.Segments == 0 {
		t.Fatal("no segments measured")
	}
	if stats.FetchShare <= 0.2 || stats.FetchShare >= 0.95 {
		t.Fatalf("fetch share %.2f outside the plausible FoV+ring band", stats.FetchShare)
	}
	if guided.BytesDownloaded >= full.BytesDownloaded {
		t.Fatalf("guided live downloaded %d ≥ full panorama %d",
			guided.BytesDownloaded, full.BytesDownloaded)
	}
	if stats.Coverage < 0.85 {
		t.Fatalf("FoV coverage %.2f — guided live blanks too often", stats.Coverage)
	}
	// Latency character unchanged: same pipeline, smaller payloads.
	if guided.MeanLatency > full.MeanLatency+2*time.Second {
		t.Fatalf("guided live latency %v far above full %v", guided.MeanLatency, full.MeanLatency)
	}
}

func TestFoVGuidedLiveCrowdWidensCoverage(t *testing.T) {
	const dur = time.Minute
	g := tiling.GridCellular
	proj := sphere.Equirectangular{}
	att := trace.GenerateAttention(rand.New(rand.NewSource(71)), dur)
	// A fast-moving viewer: own-view prediction misses more; the crowd
	// tiles recover some coverage.
	head := trace.Generate(rand.New(rand.NewSource(72)),
		trace.UserProfile{ID: "fast", SpeedScale: 2.0}, att, dur)
	pop := trace.NewPopulation(rand.New(rand.NewSource(73)), 10)
	sessions := pop.Sessions(rand.New(rand.NewSource(74)), att, dur)
	heat := hmp.BuildHeatmap(g, proj, sphere.DefaultFoV, Facebook.SegmentDur, dur, sessions)

	_, with := MeasureFoVGuidedLive(7, Facebook, g, proj, sphere.DefaultFoV, head, heat, unconstrained, dur)
	_, without := MeasureFoVGuidedLive(7, Facebook, g, proj, sphere.DefaultFoV, head, nil, unconstrained, dur)
	// Crowd pruning trims the blind OOS ring while its favorites keep
	// coverage from collapsing.
	if with.FetchShare >= without.FetchShare {
		t.Fatalf("crowd pruning did not trim the fetch share: %.2f vs %.2f",
			with.FetchShare, without.FetchShare)
	}
	if with.Coverage < without.Coverage-0.12 {
		t.Fatalf("crowd pruning collapsed coverage: %.2f vs %.2f", with.Coverage, without.Coverage)
	}
}

func TestSpatialFallbackInPipeline(t *testing.T) {
	// E9 mechanized: on a halved uplink, spatial fall-back (uploading a
	// 180° horizon at full quality) eliminates the frame skips the fixed
	// mode suffers and keeps latency near base.
	cond := Condition{Up: 1.2e6} // ≈55% of Facebook's 2.2 Mbps ingest
	plan := PlanHorizon(nil, nil, 0, 1.2e6/float64(Facebook.IngestBitrate), 160)

	withMode := func(mode UploadMode) Measurement {
		return Measure(42, Facebook, Opts{Cond: cond, Fallback: &FallbackOpts{Mode: mode, Plan: plan}})
	}
	fixed := withMode(UploadFixed)
	spatial := withMode(UploadSpatialFallback)
	quality := withMode(UploadQualityReduce)

	if fixed.Result.SkippedSegments == 0 {
		t.Fatal("fixed mode skipped nothing on a starved uplink")
	}
	if spatial.Result.SkippedSegments >= fixed.Result.SkippedSegments {
		t.Fatalf("spatial fallback skips %d ≥ fixed %d",
			spatial.Result.SkippedSegments, fixed.Result.SkippedSegments)
	}
	if quality.Result.SkippedSegments >= fixed.Result.SkippedSegments {
		t.Fatalf("quality reduction skips %d ≥ fixed %d",
			quality.Result.SkippedSegments, fixed.Result.SkippedSegments)
	}
	// Both adaptive modes keep latency near base; fixed inflates.
	base := Measure(42, Facebook, Opts{}).Result
	if spatial.Result.MeanLatency > base.MeanLatency+4*time.Second {
		t.Fatalf("spatial fallback latency %v far above base %v",
			spatial.Result.MeanLatency, base.MeanLatency)
	}
	if fixed.Result.MeanLatency <= spatial.Result.MeanLatency {
		t.Fatalf("fixed latency %v not above spatial %v",
			fixed.Result.MeanLatency, spatial.Result.MeanLatency)
	}
	// Spatial uploads a horizon share; quality uploads everything thinner.
	if spatial.UploadedFraction <= 0.3 || spatial.UploadedFraction >= 0.9 {
		t.Fatalf("spatial uploaded fraction %.2f implausible", spatial.UploadedFraction)
	}
}
