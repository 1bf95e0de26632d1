//go:build !race

package timeline

const raceEnabled = false
