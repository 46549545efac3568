// Package decl is the declaring half of the golden corpus for the
// deadexport rule; package use is the calling half. Every `// want`
// comment marks a line the analyzer must flag, and every unannotated
// line must stay silent.
package decl

import (
	"encoding/binary"
	"io"
)

// Used is called from package use.
func Used() *Reached { return &Reached{Read: OnlyHere()} }

// OnlyHere is called from its own package alone, which does not count.
func OnlyHere() int { return 1 } // want `exported function OnlyHere has no caller`

// Reached is a non-finding although use never names it: Used's
// signature mentions it.
type Reached struct {
	Read   int
	Unread int // want `exported field Reached.Unread has no caller outside package decl`
	// Tagged is a non-finding: a struct tag means reflection reads it.
	Tagged int `json:"tagged"`
}

func Dead() {} // want `exported function Dead has no caller`

// OnlyTests is referenced from use's test file alone, which does not
// count.
func OnlyTests() {} // want `exported function OnlyTests has no caller`

type DeadType struct{} // want `exported type DeadType has no caller`

// Impl is named by package use.
type Impl struct{}

// Close is a non-finding: it implements io.Closer, which use assigns
// Impl to.
func (Impl) Close() error { return nil }

func (Impl) Extra() {} // want `exported method Impl.Extra has no caller`

// Encode is called from package use.
func Encode(w io.Writer) error {
	return binary.Write(w, binary.LittleEndian, frame{})
}

// frame's exported fields are non-findings: encoding/binary reads them.
type frame struct {
	Op, Flags uint8
}

// Kept is a non-finding: the inline allowance silences the rule.
//
// bsfs-vet:allow deadexport -- corpus demo: a name kept for another package's tests
func Kept() {}
