package cellconfined_test

import (
	"testing"

	"ldis/internal/analysis/atest"
	"ldis/internal/analysis/cellconfined"
)

func TestCellConfined(t *testing.T) {
	atest.Run(t, cellconfined.Analyzer, "testdata/src/a")
}
