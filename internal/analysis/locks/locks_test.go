package locks_test

import (
	"testing"

	"corbalc/internal/analysis/analysistest"
	"corbalc/internal/analysis/locks"
)

// TestLockDiscipline checks the per-function findings that Run reports:
// manual releases, blocking calls and invocations under a held lock.
func TestLockDiscipline(t *testing.T) {
	analysistest.RunAll(t, locks.Analyzer, "sections")
}

// TestLockOrder checks the cycle report from Finish. One batch, as
// corbalc-lint runs it, in dependency order: b and c import a, c imports
// b. The a/b/c trio forms a cross-package cycle; d and e hold the
// intra-package cycles.
func TestLockOrder(t *testing.T) {
	analysistest.RunAll(t, locks.Analyzer, "a", "b", "c", "d", "e")
}
