//go:build race

package broker

// raceEnabled reports a -race build. Its sync.Pool drops a share of
// what is Put, on purpose, so pooled scratch is made anew at random and
// allocation counts mean nothing.
const raceEnabled = true
