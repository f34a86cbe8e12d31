//go:build !race

package core

// raceDetector reports whether the tests run under -race, which changes
// what some allocations weigh (their count stays the same).
const raceDetector = false
