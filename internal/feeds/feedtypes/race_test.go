//go:build race

package feedtypes

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts.
const raceEnabled = true
