//go:build !race

package ringsym_test

const raceEnabled = false
