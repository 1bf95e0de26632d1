//go:build race

package timeline

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of its items, so pooled buffers cannot be counted on.
const raceEnabled = true
