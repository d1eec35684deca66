//go:build race

package experiment

// raceDetector reports a race-enabled build; the tests that would take
// minutes under it run reduced sets (see norace_test.go).
const raceDetector = true

// Reduced long-tier budget under the race detector; see norace_test.go
// for the full-contract value.
const longTierTestInstrs = 20_000_000
