//go:build race

package planner

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of its items (the timeline's pooled event graphs), so
// allocation counts of a timeline leaf cannot be pinned.
const raceEnabled = true
