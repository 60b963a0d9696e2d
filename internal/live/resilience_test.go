package live

import (
	"testing"
	"time"

	"sperke/internal/faults"
	"sperke/internal/netem"
	"sperke/internal/sim"
	"sperke/internal/transport"
)

func breakerCycle(trs []transport.BreakerTransition) (opened, reclosed bool) {
	for _, tr := range trs {
		if tr.To == transport.BreakerOpen {
			opened = true
		}
		if opened && tr.To == transport.BreakerClosed {
			reclosed = true
		}
	}
	return
}

func TestResilientBroadcastDegradesAcrossUplinkOutage(t *testing.T) {
	plan := faults.MustParse("outage:uplink:10s:5s")
	cfg := DegradeConfig{
		Breaker: transport.BreakerConfig{FailureThreshold: 2, Cooldown: 2 * time.Second},
		Plan:    HorizonPlan{SpanDeg: 180},
		ArmFaults: func(clock *sim.Clock, upload *netem.Path) {
			if err := plan.Apply(clock, upload); err != nil {
				t.Fatal(err)
			}
		},
	}
	run := Measure(7, Facebook, Opts{Duration: 30 * time.Second,
		UpTrace: netem.Constant(8e6), DownTrace: netem.Constant(10e6), Degrade: &cfg})

	opened, reclosed := breakerCycle(run.Transitions)
	if !opened {
		t.Fatalf("uplink breaker never opened across a 5s outage; transitions %+v", run.Transitions)
	}
	if !reclosed {
		t.Fatalf("uplink breaker never re-closed after recovery; transitions %+v", run.Transitions)
	}
	if run.DegradedPieces == 0 {
		t.Fatal("no pieces uploaded at the fallback horizon")
	}
	if run.DegradedPieces >= run.TotalPieces {
		t.Fatalf("all %d pieces degraded — fallback never lifted", run.TotalPieces)
	}
	if run.Result.Samples == 0 {
		t.Fatal("viewer displayed nothing; the broadcast did not survive the outage")
	}
	nSegs := int(30 * time.Second / Facebook.SegmentDur)
	if run.Result.SkippedSegments >= nSegs {
		t.Fatalf("every segment skipped (%d/%d)", run.Result.SkippedSegments, nSegs)
	}
}

func TestResilientBroadcastCleanUplinkStaysPristine(t *testing.T) {
	run := Measure(7, Facebook, Opts{Duration: 20 * time.Second,
		UpTrace: netem.Constant(8e6), DownTrace: netem.Constant(10e6), Degrade: &DegradeConfig{}})
	if len(run.Transitions) != 0 {
		t.Fatalf("breaker moved on a healthy uplink: %+v", run.Transitions)
	}
	if run.DegradedPieces != 0 {
		t.Fatalf("%d pieces degraded with no faults", run.DegradedPieces)
	}
	if run.TotalPieces == 0 {
		t.Fatal("no pieces accounted")
	}
	if run.Result.SkippedSegments != 0 {
		t.Fatalf("%d skips on an uncontended uplink", run.Result.SkippedSegments)
	}
}

func TestResilientFallbackShedsUploadBytes(t *testing.T) {
	// Same outage, two horizons: the 120° fallback queues less during the
	// blackout than uploading the full panorama, so it should never skip
	// more segments.
	measure := func(spanDeg float64) Measurement {
		plan := faults.MustParse("outage:uplink:8s:6s")
		return Measure(7, Facebook, Opts{Duration: 30 * time.Second,
			UpTrace: netem.Constant(4e6), DownTrace: netem.Constant(10e6),
			Degrade: &DegradeConfig{
				Breaker: transport.BreakerConfig{FailureThreshold: 2},
				Plan:    HorizonPlan{SpanDeg: spanDeg},
				ArmFaults: func(clock *sim.Clock, upload *netem.Path) {
					plan.Apply(clock, upload)
				},
			}})
	}
	narrow := measure(120)
	full := measure(360)
	if narrow.Result.SkippedSegments > full.Result.SkippedSegments {
		t.Fatalf("narrow horizon skipped more (%d) than full span (%d)",
			narrow.Result.SkippedSegments, full.Result.SkippedSegments)
	}
	if o, _ := breakerCycle(narrow.Transitions); !o {
		t.Fatal("breaker never opened in the narrow run")
	}
}

func TestResilientRunIsDeterministic(t *testing.T) {
	measure := func() Measurement {
		plan := faults.MustParse("cliff:uplink:5s:10s:500k,outage:uplink:20s:2s")
		return Measure(11, Facebook, Opts{Duration: 30 * time.Second,
			UpTrace: netem.Constant(6e6), DownTrace: netem.Constant(10e6),
			Degrade: &DegradeConfig{
				ArmFaults: func(clock *sim.Clock, upload *netem.Path) {
					plan.Apply(clock, upload)
				},
			}})
	}
	a, b := measure(), measure()
	if a.Result != b.Result {
		t.Fatalf("results differ across identical seeds:\n%+v\n%+v", a.Result, b.Result)
	}
	if a.DegradedPieces != b.DegradedPieces || len(a.Transitions) != len(b.Transitions) {
		t.Fatalf("degradation accounting differs: %d/%d pieces, %d/%d transitions",
			a.DegradedPieces, b.DegradedPieces, len(a.Transitions), len(b.Transitions))
	}
}
