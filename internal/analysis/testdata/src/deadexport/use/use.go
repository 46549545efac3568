// Package use is the calling half of the deadexport golden corpus.
package use

import (
	"io"

	"repro/internal/analysis/testdata/src/deadexport/decl"
)

var _ io.Closer = decl.Impl{}

func read() int {
	if err := decl.Encode(io.Discard); err != nil {
		return 0
	}
	return decl.Used().Read
}
