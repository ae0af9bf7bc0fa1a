//go:build !race

package tsj

const raceEnabled = false
