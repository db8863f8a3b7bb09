package loadgen

// DefaultCurveSpeedups is the sweep behind the bench record's (and
// vfpgaload -trace's) throughput curve.
var DefaultCurveSpeedups = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// Default saturation search bounds: speedup 1/4x..64x of the recorded
// trace, 20 halvings (final interval < 0.01% of the range).
const (
	SaturateLo    = 0.25
	SaturateHi    = 64
	SaturateIters = 20
)
