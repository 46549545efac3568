// Package sentinelcmp is the golden corpus for the sentinelcmp rule:
// every `// want` comment marks a line the analyzer must flag, and
// every unannotated line must stay silent.
package sentinelcmp

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrStale is this package's own sentinel.
var ErrStale = errors.New("corpus: stale")

func bad(err error) bool {
	if err == io.EOF { // want `== comparison against sentinel error io\.EOF`
		return true
	}
	return err != ErrStale // want `!= comparison against sentinel error sentinelcmp\.ErrStale`
}

func badSwitch(err error) string {
	switch err {
	case ErrStale: // want `switch case compares against sentinel error sentinelcmp\.ErrStale`
		return "stale"
	case nil:
		return ""
	}
	return "other"
}

// badText matches errors by their messages, which no layer promises to
// keep.
func badText(err error, other *StaleError) bool {
	if strings.Contains(err.Error(), "over admission rate") { // want `strings\.Contains on an error's message`
		return true
	}
	if strings.HasPrefix(other.Error(), "corpus:") { // want `strings\.HasPrefix on an error's message`
		return true
	}
	if strings.HasSuffix((err).Error(), "stale") { // want `strings\.HasSuffix on an error's message`
		return true
	}
	if "corpus: stale" != other.Error() { // want `!= comparison of an error's message`
		return false
	}
	return err.Error() == "corpus: stale" // want `== comparison of an error's message`
}

// StaleError is a concrete error type; Describe is not its message.
type StaleError struct{ Age int }

func (e *StaleError) Error() string    { return fmt.Sprintf("corpus: stale by %d", e.Age) }
func (e *StaleError) Describe() string { return "stale" }

// label has an Error method without being an error.
type label struct{}

func (label) Error(verbose bool) string { return "label" }

// goodText is a non-finding: text that is not an error's message may be
// searched and compared, an error's message may be printed or measured,
// and errors.As reaches a concrete type's fields.
func goodText(err error, l label, msg string) bool {
	var se *StaleError
	if errors.As(err, &se) && se.Age > 3 {
		return strings.Contains(se.Describe(), "stale") || strings.Contains(msg, err.Error())
	}
	return l.Error(true) == "label" || len(err.Error()) > 80 || strings.Contains(msg, "stale")
}

// good is a non-finding: nil identity checks are legal, and sentinel
// matching goes through errors.Is.
func good(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, ErrStale)
}

// wrap is why identity comparison breaks: callers up-stack see this,
// not the bare sentinel.
func wrap(err error) error { return fmt.Errorf("corpus op: %w", err) }

// suppressed is a non-finding: the inline allowance silences the rule
// on its own line.
func suppressed(err error) bool {
	if err.Error() == "EOF" { //bsfs-vet:allow sentinelcmp -- corpus demo: a foreign library that only reports text
		return true
	}
	return err == ErrStale //bsfs-vet:allow sentinelcmp -- corpus demo: comparing an unwrapped return verbatim
}
