//go:build race

package dse

const raceEnabled = true
