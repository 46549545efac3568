package fsapi

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/", "/"},
		{"a", "/a"},
		{"/a/b/", "/a/b"},
		{"//a///b", "/a/b"},
		{"./a/./b", "/a/b"},
	}
	for _, c := range cases {
		got, err := cleanPath(c.in)
		if err != nil || got != c.want {
			t.Errorf("CleanPath(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "../x", "/a/../b"} {
		if _, err := cleanPath(bad); err == nil {
			t.Errorf("CleanPath(%q) accepted", bad)
		}
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct{ in, dir, base string }{
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		dir, base := splitPath(c.in)
		if dir != c.dir || base != c.base {
			t.Errorf("SplitPath(%q) = %q, %q", c.in, dir, base)
		}
	}
}

func TestNamespaceCreateStatPayload(t *testing.T) {
	ns := NewNamespace()
	if err := ns.CreateFile("/data/input/part-0", 42); err != nil {
		t.Fatal(err)
	}
	fi, err := ns.Stat("/data/input/part-0")
	if err != nil || fi.IsDir || fi.Path != "/data/input/part-0" {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	p, err := ns.Payload("/data/input/part-0")
	if err != nil || p.(int) != 42 {
		t.Fatalf("Payload = %v, %v", p, err)
	}
	// Implicit parent directories exist.
	fi, err = ns.Stat("/data")
	if err != nil || !fi.IsDir {
		t.Fatalf("parent dir: %+v, %v", fi, err)
	}
}

func TestNamespaceDuplicateCreate(t *testing.T) {
	ns := NewNamespace()
	ns.CreateFile("/f", nil)
	if err := ns.CreateFile("/f", nil); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestNamespaceFileDirConflicts(t *testing.T) {
	ns := NewNamespace()
	ns.CreateFile("/a", nil)
	if err := ns.CreateFile("/a/b", nil); !errors.Is(err, ErrNotDir) {
		t.Fatalf("file-as-dir: %v", err)
	}
	if _, err := ns.Payload("/"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("payload of dir: %v", err)
	}
	if _, err := ns.List("/a"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("list of file: %v", err)
	}
}

func TestNamespaceListSorted(t *testing.T) {
	ns := NewNamespace()
	for _, f := range []string{"/dir/c", "/dir/a", "/dir/b"} {
		ns.CreateFile(f, nil)
	}
	ns.Mkdir("/dir/sub")
	infos, err := ns.List("/dir")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Path)
	}
	want := []string{"/dir/a", "/dir/b", "/dir/c", "/dir/sub"}
	if len(names) != len(want) {
		t.Fatalf("List = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
}

func TestNamespaceSizeTracking(t *testing.T) {
	ns := NewNamespace()
	ns.CreateFile("/f", nil)
	ns.SetSize("/f", 100)
	ns.SetSize("/f", 50) // sizes only grow (append model)
	fi, _ := ns.Stat("/f")
	if fi.Size != 100 {
		t.Fatalf("size = %d", fi.Size)
	}
	if err := ns.SetSize("/missing", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestNamespaceRename(t *testing.T) {
	ns := NewNamespace()
	ns.CreateFile("/tmp/job/part-0", 7)
	if err := ns.Rename("/tmp/job/part-0", "/out/part-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stat("/tmp/job/part-0"); !errors.Is(err, ErrNotFound) {
		t.Fatal("old path still present")
	}
	p, err := ns.Payload("/out/part-0")
	if err != nil || p.(int) != 7 {
		t.Fatalf("moved payload: %v, %v", p, err)
	}
	// Rename a directory moves its subtree.
	ns.CreateFile("/d1/x", 1)
	ns.CreateFile("/d1/y", 2)
	if err := ns.Rename("/d1", "/d2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Payload("/d2/x"); err != nil {
		t.Fatal("subtree not moved")
	}
	// Destination conflicts rejected.
	ns.CreateFile("/c1", nil)
	ns.CreateFile("/c2", nil)
	if err := ns.Rename("/c1", "/c2"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestNamespaceDelete(t *testing.T) {
	ns := NewNamespace()
	ns.CreateFile("/d/f", 9)
	payload, err := ns.Delete("/d/f")
	if err != nil || payload.(int) != 9 {
		t.Fatalf("Delete = %v, %v", payload, err)
	}
	if _, err := ns.Delete("/d/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Non-empty directory refuses deletion; empty one succeeds.
	ns.CreateFile("/d2/f", nil)
	if _, err := ns.Delete("/d2"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("non-empty delete: %v", err)
	}
	ns.Delete("/d2/f")
	if _, err := ns.Delete("/d2"); err != nil {
		t.Fatalf("empty dir delete: %v", err)
	}
}

func TestNamespaceWalk(t *testing.T) {
	ns := NewNamespace()
	files := []string{"/a/1", "/a/2", "/a/sub/3", "/b/4"}
	for i, f := range files {
		ns.CreateFile(f, i)
		ns.SetSize(f, int64(i*10))
	}
	var visited []string
	err := ns.Walk("/a", func(path string, size int64, payload any) {
		visited = append(visited, path)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a/1", "/a/2", "/a/sub/3"}
	if len(visited) != len(want) {
		t.Fatalf("Walk = %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("Walk = %v, want %v", visited, want)
		}
	}
	// Walking the root visits everything.
	visited = nil
	ns.Walk("/", func(path string, _ int64, _ any) { visited = append(visited, path) })
	if len(visited) != 4 {
		t.Fatalf("root walk = %v", visited)
	}
}

// TestNamespaceQuickAgainstMap drives random create/delete/stat against
// a flat reference map.
func TestNamespaceQuickAgainstMap(t *testing.T) {
	names := []string{"/x/a", "/x/b", "/y/c", "/z", "/x/sub/d"}
	f := func(ops []uint8) bool {
		ns := NewNamespace()
		ref := map[string]bool{}
		for _, o := range ops {
			name := names[int(o)%len(names)]
			switch (o / 8) % 2 {
			case 0:
				err := ns.CreateFile(name, nil)
				if ref[name] != (err != nil) {
					return false
				}
				ref[name] = true
			case 1:
				_, err := ns.Delete(name)
				if ref[name] == errors.Is(err, ErrNotFound) {
					return false
				}
				delete(ref, name)
			}
		}
		// Final state agreement.
		var have []string
		ns.Walk("/", func(p string, _ int64, _ any) { have = append(have, p) })
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(have)
		sort.Strings(want)
		if len(have) != len(want) {
			return false
		}
		for i := range want {
			if have[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Walk visits every file (not directory) under a clean path, calling fn
// with the full path and payload.
func (ns *Namespace) Walk(path string, fn func(path string, size int64, payload any)) error {
	clean, err := cleanPath(path)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	start := ns.lookup(clean)
	if start == nil {
		return ErrNotFound
	}
	var rec func(prefix string, n *nsNode)
	rec = func(prefix string, n *nsNode) {
		if !n.dir {
			fn(prefix, n.size, n.payload)
			return
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			childPrefix := prefix + "/" + name
			if prefix == "/" {
				childPrefix = "/" + name
			}
			rec(childPrefix, n.children[name])
		}
	}
	rec(clean, start)
	return nil
}
