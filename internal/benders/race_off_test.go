//go:build !race

package benders

// raceEnabled reports whether the race detector instruments this build;
// long tests trim their trial counts under its instrumentation.
const raceEnabled = false
