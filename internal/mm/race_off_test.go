//go:build !race

package mm

// raceEnabled reports a -race build, whose instrumentation changes how
// many bytes some standard-library paths allocate.
const raceEnabled = false
