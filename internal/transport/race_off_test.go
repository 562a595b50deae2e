//go:build !race

package transport

// raceEnabled reports whether the race detector is active. Its
// sync.Pool drops a quarter of Puts on purpose, so allocation counts
// under it measure the detector, and the tight pins only hold without
// it.
const raceEnabled = false
