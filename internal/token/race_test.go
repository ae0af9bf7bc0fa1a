//go:build race

package token

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so allocation counts mean nothing under it.
const raceEnabled = true
