// stats.go: latency-distribution helpers shared by the generator's
// report and the bench harness's percentile points.

package traffic

import (
	"sort"
	"time"
)

// Quantile returns the q-quantile (0 <= q <= 1) of samples using the
// nearest-rank method. It does not modify samples; an empty input
// reports 0.
func Quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return quantileSorted(sorted, q)
}

// Quantiles returns the p50/p90/p99 latency points of samples in one
// sort — the distribution triple the bench JSON schema records.
func Quantiles(samples []time.Duration) (p50, p90, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return quantileSorted(sorted, 0.50), quantileSorted(sorted, 0.90), quantileSorted(sorted, 0.99)
}

func quantileSorted(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
