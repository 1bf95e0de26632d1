//go:build !race

package parallel

// raceDetector reports whether the race detector instruments this test
// binary; checkAssignmentOracles thins its optimizer sweep under it.
const raceDetector = false
