package fsapi

import (
	"sort"
	"sync"
)

// Namespace is a hierarchical file namespace with per-file payloads —
// the common core of BSFS's namespace manager and HDFS's namenode.
// Payloads are implementation-defined (a blob id for BSFS, a chunk list
// for HDFS). Namespace is safe for concurrent use.
type Namespace struct {
	mu   sync.Mutex
	root *nsNode
}

type nsNode struct {
	name     string
	dir      bool
	children map[string]*nsNode // dirs only
	payload  any
	size     int64
}

// NewNamespace returns a namespace containing only the root directory.
func NewNamespace() *Namespace {
	return &Namespace{root: &nsNode{name: "/", dir: true, children: map[string]*nsNode{}}}
}

// lookup walks to a clean path. Returns nil if any element is missing.
func (ns *Namespace) lookup(clean string) *nsNode {
	if clean == "/" {
		return ns.root
	}
	cur := ns.root
	rest := clean[1:]
	for len(rest) > 0 {
		var part string
		if i := indexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		if !cur.dir {
			return nil
		}
		next, ok := cur.children[part]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// CreateFile registers a file with a payload. Parent directories are
// created implicitly (Hadoop semantics).
func (ns *Namespace) CreateFile(path string, payload any) error {
	clean, err := cleanPath(path)
	if err != nil {
		return err
	}
	if clean == "/" {
		return ErrIsDir
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	dir, base := splitPath(clean)
	parent, err := ns.mkdirAllLocked(dir)
	if err != nil {
		return err
	}
	if _, ok := parent.children[base]; ok {
		return ErrExists
	}
	parent.children[base] = &nsNode{name: base, payload: payload}
	return nil
}

func (ns *Namespace) mkdirAllLocked(clean string) (*nsNode, error) {
	if clean == "/" {
		return ns.root, nil
	}
	cur := ns.root
	rest := clean[1:]
	for len(rest) > 0 {
		var part string
		if i := indexByte(rest, '/'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, ""
		}
		next, ok := cur.children[part]
		if !ok {
			next = &nsNode{name: part, dir: true, children: map[string]*nsNode{}}
			cur.children[part] = next
		} else if !next.dir {
			return nil, ErrNotDir
		}
		cur = next
	}
	return cur, nil
}

// Mkdir creates a directory (and parents).
func (ns *Namespace) Mkdir(path string) error {
	clean, err := cleanPath(path)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	_, err = ns.mkdirAllLocked(clean)
	return err
}

// Payload returns a file's payload.
func (ns *Namespace) Payload(path string) (any, error) {
	clean, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.lookup(clean)
	if n == nil {
		return nil, ErrNotFound
	}
	if n.dir {
		return nil, ErrIsDir
	}
	return n.payload, nil
}

// SetSize records a file's size (kept in the namespace so Stat needs no
// storage round trip).
func (ns *Namespace) SetSize(path string, size int64) error {
	clean, err := cleanPath(path)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.lookup(clean)
	if n == nil {
		return ErrNotFound
	}
	if n.dir {
		return ErrIsDir
	}
	if size > n.size {
		n.size = size
	}
	return nil
}

// Stat describes a path.
func (ns *Namespace) Stat(path string) (FileInfo, error) {
	clean, err := cleanPath(path)
	if err != nil {
		return FileInfo{}, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.lookup(clean)
	if n == nil {
		return FileInfo{}, ErrNotFound
	}
	return FileInfo{Path: clean, Size: n.size, IsDir: n.dir}, nil
}

// List returns the entries of a directory, sorted by name.
func (ns *Namespace) List(path string) ([]FileInfo, error) {
	clean, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.lookup(clean)
	if n == nil {
		return nil, ErrNotFound
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FileInfo, 0, len(names))
	prefix := clean
	if prefix != "/" {
		prefix += "/"
	} else {
		prefix = "/"
	}
	for _, name := range names {
		c := n.children[name]
		out = append(out, FileInfo{Path: prefix + name, Size: c.size, IsDir: c.dir})
	}
	return out, nil
}

// Rename moves a file or directory. The destination must not exist.
func (ns *Namespace) Rename(oldPath, newPath string) error {
	oldClean, err := cleanPath(oldPath)
	if err != nil {
		return err
	}
	newClean, err := cleanPath(newPath)
	if err != nil {
		return err
	}
	if oldClean == "/" || newClean == "/" {
		return ErrBadPath
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	oldDir, oldBase := splitPath(oldClean)
	src := ns.lookup(oldDir)
	if src == nil || !src.dir {
		return ErrNotFound
	}
	node, ok := src.children[oldBase]
	if !ok {
		return ErrNotFound
	}
	newDir, newBase := splitPath(newClean)
	dst, err := ns.mkdirAllLocked(newDir)
	if err != nil {
		return err
	}
	if _, exists := dst.children[newBase]; exists {
		return ErrExists
	}
	delete(src.children, oldBase)
	node.name = newBase
	dst.children[newBase] = node
	return nil
}

// Delete removes a file or empty directory. The payload is returned so
// callers can release storage.
func (ns *Namespace) Delete(path string) (any, error) {
	clean, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	if clean == "/" {
		return nil, ErrBadPath
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	dir, base := splitPath(clean)
	parent := ns.lookup(dir)
	if parent == nil || !parent.dir {
		return nil, ErrNotFound
	}
	n, ok := parent.children[base]
	if !ok {
		return nil, ErrNotFound
	}
	if n.dir && len(n.children) > 0 {
		return nil, ErrNotEmpty
	}
	delete(parent.children, base)
	return n.payload, nil
}
