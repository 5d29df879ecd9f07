//go:build race

package prosim_test

// raceDetector reports whether the test binary runs under -race, where
// the simulator runs some 18 times slower.
const raceDetector = true
