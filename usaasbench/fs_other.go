//go:build !linux

package main

// flushDisks is a no-op off Linux.
func flushDisks() {}

// fsType is only resolved on Linux.
func fsType(string) string { return "unknown" }
