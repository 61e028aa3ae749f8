package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002-4, read from the processor itself rather than from files
// outside the checkout.
func cpuModel() string {
	if top, _, _, _ := cpuid(0x80000000, 0); top < 0x80000004 {
		return "unknown amd64"
	}
	var brand []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, b, c, d} {
			brand = binary.LittleEndian.AppendUint32(brand, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(brand), "\x00"))
}
