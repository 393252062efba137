//go:build !race

// Package race reports whether the binary was built with the race
// detector, mirroring the standard library's internal/race.
//
// The alloc-budget tests need it: under -race, sync.Pool deliberately
// drops a random quarter of Put items (to widen the interleavings the
// detector can observe), so steady-state allocation counts over pooled
// code are not stable and the strict AllocsPerRun assertions must be
// skipped. The budgets remain enforced by the plain-test run.
package race

// Enabled reports whether the race detector is active.
const Enabled = false
