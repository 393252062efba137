package ctxtimeout_test

import (
	"testing"

	"corbalc/internal/analysis/analysistest"
	"corbalc/internal/analysis/ctxtimeout"
)

func TestCtxTimeout(t *testing.T) {
	analysistest.Run(t, ctxtimeout.Analyzer, "a")
}
