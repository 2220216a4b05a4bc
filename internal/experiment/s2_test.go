package experiment

import "testing"

// TestS2QuickSummaryGolden pins the quick S2 sweep: the static worlds,
// ring targets and crash faults under Algorithm 1 and the random walk,
// whose run-length and block kernels must reproduce the per-move loop's
// results exactly.
func TestS2QuickSummaryGolden(t *testing.T) {
	checkQuickSummaryGolden(t, s2Sweep(), 11)
}
