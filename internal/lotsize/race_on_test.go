//go:build race

package lotsize

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under its instrumentation.
const raceEnabled = true
