//go:build !amd64

package main

// cpuModel reports no model where CPUID is unavailable.
func cpuModel() string { return "unknown" }
