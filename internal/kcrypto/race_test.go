//go:build race

package kcrypto

const raceEnabled = true
