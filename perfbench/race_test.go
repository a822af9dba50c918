//go:build race

package main

// raceEnabled reports a -race build, where sync.Pool drops objects at
// random and allocation counts cannot repeat.
const raceEnabled = true
