//go:build !unix

package main

import "time"

// processCPU is unavailable here; cpu.total_s then reads 0.
func processCPU() time.Duration { return 0 }
