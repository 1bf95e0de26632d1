//go:build race

package scenario

// raceEnabled reports a -race build, whose allocation counts differ: its
// sync.Pool (behind json.Marshal) drops a random share of its items.
const raceEnabled = true
