//go:build race

package sha2

// raceDetector reports that the test binary was built with -race.
const raceDetector = true
