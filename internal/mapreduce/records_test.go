package mapreduce

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fsapi"
)

// memReader adapts a byte slice to fsapi.Reader for record-iterator
// unit tests.
type memReader struct{ data []byte }

func (m *memReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
func (m *memReader) Read(p []byte) (int, error)                  { return 0, io.EOF }
func (m *memReader) ReadSyntheticAt(off, l int64) (int64, error) { return l, nil }
func (m *memReader) Size() int64                                 { return int64(len(m.data)) }
func (m *memReader) Close() error                                { return nil }

var _ fsapi.Reader = (*memReader)(nil)

// collect runs forEachRecord and returns records with offsets.
func collect(t *testing.T, data string, off, length int64) (recs []string, offs []int64) {
	t.Helper()
	r := &memReader{data: []byte(data)}
	err := forEachRecord(r, off, length, func(o int64, rec []byte) error {
		recs = append(recs, string(rec))
		offs = append(offs, o)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, offs
}

func TestForEachRecordWholeFile(t *testing.T) {
	recs, offs := collect(t, "a\nbb\nccc\n", 0, 9)
	want := []string{"a", "bb", "ccc"}
	if len(recs) != 3 {
		t.Fatalf("recs = %v", recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("recs = %v", recs)
		}
	}
	if offs[0] != 0 || offs[1] != 2 || offs[2] != 5 {
		t.Fatalf("offs = %v", offs)
	}
}

func TestForEachRecordNoTrailingNewline(t *testing.T) {
	recs, _ := collect(t, "a\nfinal", 0, 7)
	if len(recs) != 2 || recs[1] != "final" {
		t.Fatalf("recs = %v", recs)
	}
}

func TestForEachRecordSplitCoverage(t *testing.T) {
	// Every record is processed by exactly one split, for every split
	// size — the Hadoop boundary convention.
	var sb strings.Builder
	rng := rand.New(rand.NewSource(11))
	var want []string
	for i := 0; i < 100; i++ {
		rec := fmt.Sprintf("rec-%03d-%s", i, strings.Repeat("x", rng.Intn(30)))
		want = append(want, rec)
		sb.WriteString(rec + "\n")
	}
	data := sb.String()
	for _, splitSize := range []int64{1, 7, 16, 64, 100, 1000, int64(len(data))} {
		var got []string
		for off := int64(0); off < int64(len(data)); off += splitSize {
			l := splitSize
			recs, _ := collect(t, data, off, l)
			got = append(got, recs...)
		}
		if len(got) != len(want) {
			t.Fatalf("split %d: %d records, want %d", splitSize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split %d: record %d = %q, want %q", splitSize, i, got[i], want[i])
			}
		}
	}
}

func TestForEachRecordEmptyInput(t *testing.T) {
	recs, _ := collect(t, "", 0, 0)
	if len(recs) != 0 {
		t.Fatalf("recs = %v", recs)
	}
}

func TestForEachRecordLongLineAcrossBuffers(t *testing.T) {
	// A single record larger than the 64 KB read buffer must survive
	// the carry path.
	long := strings.Repeat("z", 200<<10)
	recs, _ := collect(t, "short\n"+long+"\nend\n", 0, int64(6+len(long)+1+4))
	if len(recs) != 3 || len(recs[1]) != len(long) || recs[2] != "end" {
		t.Fatalf("lens = %d records, middle %d", len(recs), len(recs[1]))
	}
}

func TestForEachRecordErrorPropagates(t *testing.T) {
	r := &memReader{data: []byte("a\nb\nc\n")}
	calls := 0
	err := forEachRecord(r, 0, 6, func(int64, []byte) error {
		calls++
		if calls == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || calls != 2 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestPartitionStable(t *testing.T) {
	for _, key := range []string{"a", "hello", "", "key-with-long-content"} {
		p1 := partition([]byte(key), 7)
		p2 := partition([]byte(key), 7)
		if p1 != p2 || p1 < 0 || p1 >= 7 {
			t.Fatalf("partition(%q) = %d, %d", key, p1, p2)
		}
	}
	// Keys spread over partitions.
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[partition([]byte(fmt.Sprintf("key%d", i)), 8)] = true
	}
	if len(seen) < 6 {
		t.Fatalf("poor partition spread: %d of 8", len(seen))
	}
}
