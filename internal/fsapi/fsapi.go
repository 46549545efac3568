// fsapi.go declares the FileSystem/Reader/Writer interfaces, the
// shared open options, typed errors, and path helpers. The package
// contract is documented in doc.go.

package fsapi

import (
	"errors"
	"io"
	"strings"

	"repro/internal/cluster"
)

// Errors shared by file-system implementations.
var (
	ErrNotFound     = errors.New("fs: not found")
	ErrExists       = errors.New("fs: already exists")
	ErrIsDir        = errors.New("fs: is a directory")
	ErrNotDir       = errors.New("fs: not a directory")
	ErrNotEmpty     = errors.New("fs: directory not empty")
	ErrNotSupported = errors.New("fs: operation not supported")
	ErrBadPath      = errors.New("fs: invalid path")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// BlockLocation reports which nodes serve a byte range of a file, best
// host first — the data-layout exposure the MapReduce scheduler needs.
type BlockLocation struct {
	Offset int64
	Length int64
	Hosts  []cluster.NodeID
}

// OpenOption configures how a file is opened or created. Options are
// shared by every FileSystem implementation; an implementation that
// cannot honor one (e.g. HDFS asked for AtVersion) returns an error
// wrapping ErrNotSupported instead of silently ignoring it.
type OpenOption func(*OpenSettings)

// OpenSettings is the resolved option set of one Create/Open/Append
// call. Implementations obtain it through ApplyOpenOptions.
type OpenSettings struct {
	// Version pins the open to a published snapshot when HasVersion is
	// set; otherwise the latest content is addressed.
	Version    uint64
	HasVersion bool
}

// ApplyOpenOptions resolves opts over the defaults; implementations
// call it at the top of Create/OpenAt/Append.
func ApplyOpenOptions(opts []OpenOption) OpenSettings {
	var s OpenSettings
	for _, o := range opts {
		o(&s)
	}
	return s
}

// AtVersion pins an OpenAt to a published snapshot of the file. File
// systems without versioning return ErrNotSupported.
func AtVersion(v uint64) OpenOption {
	return func(s *OpenSettings) { s.Version, s.HasVersion = v, true }
}

// Writer is a sequential file writer.
type Writer interface {
	io.Writer
	// WriteSynthetic appends n size-only bytes (cluster-scale
	// benchmarking mode).
	WriteSynthetic(n int64) (int64, error)
	// Close flushes buffered data and commits the file length.
	Close() error
}

// Reader is a positional file reader.
type Reader interface {
	io.Reader
	io.ReaderAt
	// ReadSyntheticAt traverses the read path for length bytes at off
	// without materializing data; returns bytes covered.
	ReadSyntheticAt(off, length int64) (int64, error)
	// Size returns the file size at open time.
	Size() int64
	Close() error
}

// FileSystem is the storage contract. Implementations are bound to a
// client node; operations charge that node's messaging and transfers.
type FileSystem interface {
	// Name identifies the implementation ("bsfs", "hdfs").
	Name() string
	// BlockSize is the split granularity exposed to MapReduce.
	BlockSize() int64

	Create(path string, opts ...OpenOption) (Writer, error)
	// Open returns a reader over the file's latest content — shorthand
	// for OpenAt with no options.
	Open(path string) (Reader, error)
	// OpenAt opens a file for reading, on versioning file systems at a
	// pinned snapshot (AtVersion). File systems without versioning
	// return ErrNotSupported when a snapshot is requested.
	OpenAt(path string, opts ...OpenOption) (Reader, error)
	// Append opens an existing file for appending. File systems
	// without append support return ErrNotSupported (HDFS, §II.C).
	Append(path string, opts ...OpenOption) (Writer, error)

	Stat(path string) (FileInfo, error)
	List(path string) ([]FileInfo, error)
	Mkdir(path string) error
	Rename(oldPath, newPath string) error
	Delete(path string) error

	// BlockLocations reports data placement for a byte range.
	BlockLocations(path string, off, length int64) ([]BlockLocation, error)
}

// cleanPath normalizes a path to the canonical /a/b/c form.
func cleanPath(p string) (string, error) {
	if p == "" {
		return "", ErrBadPath
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		switch part {
		case "", ".":
			continue
		case "..":
			return "", ErrBadPath
		default:
			out = append(out, part)
		}
	}
	return "/" + strings.Join(out, "/"), nil
}

// splitPath returns the parent directory and base name of a clean path.
func splitPath(clean string) (dir, base string) {
	i := strings.LastIndexByte(clean, '/')
	if i <= 0 {
		return "/", clean[1:]
	}
	return clean[:i], clean[i+1:]
}
