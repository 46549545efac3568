package bsfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestReaderSnapshotUnaffectedByLaterWrites(t *testing.T) {
	// A reader opened before an overwrite keeps reading the old
	// snapshot even for blocks it has not touched yet.
	_, fs := newTestFS(t, Config{BlockSize: 64})
	writeFile(t, fs, "/f", bytes.Repeat([]byte("A"), 192)) // 3 blocks
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 64)
	r.ReadAt(buf, 0) // touch only block 0

	// Overwrite block 2 through a fresh writer (Write via core client).
	blob, err := fs.Blob("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.WriteAt(bytes.Repeat([]byte("B"), 64), 128); err != nil {
		t.Fatal(err)
	}

	// The old reader still sees "A" in block 2.
	if _, err := r.ReadAt(buf, 128); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte("A"), 64)) {
		t.Fatalf("snapshot leaked later write: %q", buf[:8])
	}
	// A fresh reader sees the new data.
	r2, _ := fs.Open("/f")
	defer r2.Close()
	r2.ReadAt(buf, 128)
	if !bytes.Equal(buf, bytes.Repeat([]byte("B"), 64)) {
		t.Fatalf("new reader missed the write: %q", buf[:8])
	}
}

func TestStatSeesOtherClientsAppends(t *testing.T) {
	svc, fs := newTestFS(t, Config{})
	writeFile(t, fs, "/grow", []byte("12345"))
	other := svc.NewFS(3)
	w, _ := other.Append("/grow")
	w.Write([]byte("67890"))
	w.Close()
	fi, err := fs.Stat("/grow")
	if err != nil || fi.Size != 10 {
		t.Fatalf("Stat after remote append = %+v, %v", fi, err)
	}
}

func TestSequentialReaderReusesPosition(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 32})
	writeFile(t, fs, "/seq", []byte("abcdefghijklmnopqrstuvwxyz"))
	r, _ := fs.Open("/seq")
	defer r.Close()
	a := make([]byte, 10)
	b := make([]byte, 10)
	c := make([]byte, 10)
	r.Read(a)
	r.Read(b)
	n, err := r.Read(c)
	if string(a) != "abcdefghij" || string(b) != "klmnopqrst" {
		t.Fatalf("sequential reads: %q %q", a, b)
	}
	if n != 6 || string(c[:n]) != "uvwxyz" {
		t.Fatalf("tail read: %d %q (%v)", n, c[:n], err)
	}
	if _, err := r.Read(c); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF expected, got %v", err)
	}
}

func TestBlockLocationsRangeClamping(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 100})
	w, _ := fs.Create("/clamp")
	w.WriteSynthetic(250)
	w.Close()
	// A range inside block 1 only returns block 1.
	locs, err := fs.BlockLocations("/clamp", 120, 50)
	if err != nil || len(locs) != 1 || locs[0].Offset != 100 {
		t.Fatalf("locs = %+v, %v", locs, err)
	}
	// Beyond EOF: nothing.
	locs, _ = fs.BlockLocations("/clamp", 400, 10)
	if len(locs) != 0 {
		t.Fatalf("past-EOF locs = %+v", locs)
	}
	// The tail block's length is clamped to the file size.
	locs, _ = fs.BlockLocations("/clamp", 0, 250)
	if got := locs[len(locs)-1]; got.Offset+got.Length != 250 {
		t.Fatalf("tail block = %+v", got)
	}
}
