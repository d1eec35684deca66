//go:build !race

package experiment

// raceDetector is false in builds without the race detector, which run
// every test at its full size. The race detector multiplies simulation
// cost severalfold, so a raced build runs reduced sets: a quarter of the
// conformance table per half of the mode cube and sampling mode
// (confSelect) and a reduced long-tier budget (race_test.go).
const raceDetector = false

// longTierTestInstrs is the coverage budget TestLongTierSampledRun uses:
// the full long-tier contract is >=100M instructions per cell.
const longTierTestInstrs = 100_000_000
