package live_test

import (
	"fmt"

	"sperke/internal/live"
)

// ExampleMeasure reproduces one Table 2 cell: Facebook's
// unconstrained live E2E latency (the paper measures 9.2 s) over the
// default two-minute broadcast.
func ExampleMeasure() {
	r := live.Measure(42, live.Facebook, live.Opts{})
	fmt.Printf("Facebook base E2E latency ≈ %.0f s\n", r.MeanLatency.Seconds())
	// Output:
	// Facebook base E2E latency ≈ 9 s
}
