//go:build !race

package broker

const raceEnabled = false
