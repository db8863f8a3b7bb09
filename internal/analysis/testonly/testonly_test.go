package testonly_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/testonly"
)

func TestDirect(t *testing.T) {
	analysistest.Run(t, testonly.Analyzer, "testdata/src/direct", "")
}

func TestTransitive(t *testing.T) {
	analysistest.Run(t, testonly.Analyzer, "testdata/src/transitive", "")
}

func TestSuppressed(t *testing.T) {
	analysistest.Run(t, testonly.Analyzer, "testdata/src/suppressed", "")
}

func TestInterfaceMethods(t *testing.T) {
	analysistest.Run(t, testonly.Analyzer, "testdata/src/iface", "")
}
