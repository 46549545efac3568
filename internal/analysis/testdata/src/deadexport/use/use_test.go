package use

import (
	"testing"

	"repro/internal/analysis/testdata/src/deadexport/decl"
)

func TestOnly(t *testing.T) {
	decl.OnlyTests()
	if read() != 0 {
		t.Fatal("read")
	}
}
