//go:build !race

package sdp

// raceEnabled reports whether the race detector is compiled in. It makes
// sync.Pool drop items at random, so allocation counts skip under it.
const raceEnabled = false
