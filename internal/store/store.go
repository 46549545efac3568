// store.go defines the Backend interface every provider-side persistent
// tier implements, and the factory that turns a backend spec string
// into a running backend. The package contract lives in doc.go.

package store

import (
	"errors"
	"fmt"
	"path"
	"strings"
)

// ErrNotFound is returned when a key is absent from a backend.
var ErrNotFound = errors.New("store: key not found")

// ErrBadSpec is returned by Open for an unparseable backend spec.
var ErrBadSpec = errors.New("store: bad backend spec")

// ErrClosed is returned by operations on a closed backend.
var ErrClosed = errors.New("store: backend closed")

// Meta describes a stored entry without touching its payload.
type Meta struct {
	// Size is the entry's declared size in bytes (for synthetic
	// entries, the size the payload stands in for).
	Size int64
	// Synthetic marks a size-only entry with no payload bytes.
	Synthetic bool
}

// Backend is a flat key → page store: the persistent tier beneath the
// pagestore cache (BlobSeer's BerkeleyDB layer). Implementations are
// safe for use by one goroutine at a time; the cache tier above them
// serializes access under its own lock.
//
// Put stores an entry (overwriting any previous one), Get returns the
// latest payload for a key (nil for synthetic entries), and Walk
// enumerates the surviving index — the recovery path a reopened cache
// tier rebuilds its page index from.
type Backend interface {
	// Spec returns the canonical spec string that reopens this backend
	// ("mem:", "null:", "disk:/path").
	Spec() string
	// Put stores data under key. Synthetic entries carry no payload;
	// size is the declared entry size either way. The backend owns no
	// reference to data after Put returns.
	Put(key string, data []byte, size int64, synthetic bool) error
	// Get returns a fresh copy of the payload for key (nil for a
	// synthetic entry), or ErrNotFound.
	Get(key string) ([]byte, error)
	// Stat reports an entry's metadata and presence.
	Stat(key string) (Meta, bool)
	// Delete removes an entry. Deleting a missing key is not an error.
	Delete(key string) error
	// Len returns the number of live entries.
	Len() int
	// Walk calls fn for every live entry until fn returns false.
	// Enumeration order is unspecified.
	Walk(fn func(key string, m Meta) bool)
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Compact reclaims space held by superseded and deleted entries.
	Compact() error
	// Close releases the backend. A disk backend syncs first; reopening
	// its spec recovers every entry Put before Close.
	Close() error
}

// Open constructs a backend from a spec string:
//
//	mem:            RAM-resident backend (survives eviction, not restart)
//	disk:<path>     segmented write-ahead page log under <path>
//	null:           discards writes; reads miss (write-path benchmarks)
//
// The empty spec is an error; callers that want "no backend at all"
// (a pure cache) should not call Open.
func Open(spec string) (Backend, error) {
	kind, arg, err := parseSpec(spec)
	switch {
	case err != nil:
		return nil, err
	case kind == "mem":
		return newMem(), nil
	case kind == "null":
		return newNull(), nil
	}
	return openDisk(arg)
}

// parseSpec checks spec against Open's grammar and splits it into its
// backend kind and argument.
func parseSpec(spec string) (kind, arg string, err error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return "", "", fmt.Errorf("%w: %q (want kind:arg, e.g. disk:/var/bsfs)", ErrBadSpec, spec)
	}
	switch kind {
	case "mem", "null":
		if arg != "" {
			return "", "", fmt.Errorf("%w: %q (%s: takes no argument)", ErrBadSpec, spec, kind)
		}
	case "disk":
		if arg == "" {
			return "", "", fmt.Errorf("%w: %q (disk: needs a directory)", ErrBadSpec, spec)
		}
	default:
		return "", "", fmt.Errorf("%w: unknown backend kind %q in %q", ErrBadSpec, kind, spec)
	}
	return kind, arg, nil
}

// SubSpec derives a member-scoped spec from a fleet-wide one: a disk
// spec gains a path component per member ("disk:/var/bsfs" + "provider-3"
// → "disk:/var/bsfs/provider-3"), while location-free backends (mem,
// null) are returned unchanged — every member opens its own instance
// anyway. An empty spec stays empty.
func SubSpec(spec, name string) string {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok || kind != "disk" {
		return spec
	}
	return "disk:" + path.Join(arg, name)
}

// Valid reports whether spec would open (without opening it): the
// syntax check daemons run at flag-parse time. The empty spec is valid
// and means "no persistent backend".
func Valid(spec string) error {
	if spec == "" {
		return nil
	}
	_, _, err := parseSpec(spec)
	return err
}
