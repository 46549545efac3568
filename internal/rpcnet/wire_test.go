package rpcnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsfs"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// pattern fills n bytes that differ from page to page.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>12) ^ byte(i*7)
	}
	return b
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pageFetches sums the providers' page-cache lookups.
func pageFetches(dep *core.Deployment) uint64 {
	var n uint64
	for _, p := range dep.ProviderList() {
		st := p.Store().Stats()
		n += st.Hits + st.Misses
	}
	return n
}

// TestWireGetFetchesEachPageOnce counts provider page fetches around one
// Get: the reply comes from one reader, so its readahead is consumed
// instead of thrown away and no block is read once per wire chunk.
func TestWireGetFetchesEachPageOnce(t *testing.T) {
	for _, tc := range []struct {
		name        string
		block, size int
	}{
		{"two-blocks", 4 << 20, 8 << 20},
		{"one-64MiB-block", 64 << 20, 64 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const page = 256 << 10
			addr, dep := serve(t, core.Options{PageSize: page}, bsfs.Config{BlockSize: int64(tc.block)})
			c := dialTest(t, addr)
			data := pattern(tc.size)
			if err := c.Put("/f", data); err != nil {
				t.Fatal(err)
			}
			before := pageFetches(dep)
			got, err := c.Get("/f", 0)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get: %d bytes, %v", len(got), err)
			}
			// Let a stray readahead, if there were one, finish and be counted.
			time.Sleep(50 * time.Millisecond)
			if n, want := pageFetches(dep)-before, uint64(tc.size/page); n != want {
				t.Fatalf("one Get fetched %d pages, want %d", n, want)
			}
		})
	}
}

// TestWriteToMatchesReadAt: a read reply is the bsfs reader's WriteTo
// framed to the socket, one data frame per reader block (the rest of
// the first, up to the requested length in the last), and readRange
// returns exactly the bytes the reader's ReadAt does.
func TestWriteToMatchesReadAt(t *testing.T) {
	const bs = 4 << 20
	addr, _ := serve(t, core.Options{PageSize: 64 << 10}, bsfs.Config{BlockSize: bs})
	c := dialTest(t, addr)
	big := pattern(9 << 20)
	for path, data := range map[string][]byte{"/big": big, "/empty": nil, "/grown": big[:bs+100]} {
		if err := c.Put(path, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Append("/grown", big[:5000]); err != nil {
		t.Fatal(err)
	}
	versions, err := c.Versions("/grown")
	if err != nil || len(versions) < 2 {
		t.Fatalf("versions of /grown = %v, %v", versions, err)
	}
	for _, tc := range []struct {
		name, path  string
		version     uint64
		off, length int64
		want        []byte
		frames      []int64
	}{
		{"offset-0", "/big", 0, 0, math.MaxInt64, big, []int64{bs, bs, 1 << 20}},
		{"mid-block", "/big", 0, bs + 12345, math.MaxInt64, big[bs+12345:], []int64{bs - 12345, 1 << 20}},
		{"at-size", "/big", 0, 9 << 20, math.MaxInt64, nil, nil},
		{"past-size", "/big", 0, 10 << 20, 1, nil, nil},
		{"ends-mid-block", "/big", 0, 100, bs, big[100 : bs+100], []int64{bs - 100, 100}},
		{"empty-file", "/empty", 0, 0, math.MaxInt64, nil, nil},
		{"older-version", "/grown", versions[len(versions)-2], 3, math.MaxInt64, big[3 : bs+100], []int64{bs - 3, 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := c.readRange(tc.path, tc.version, tc.off, tc.length)
			if err != nil || !bytes.Equal(got, tc.want) {
				t.Fatalf("readRange = %d bytes, %v; want %d", len(got), err, len(tc.want))
			}
			conn := dialRaw(t, addr)
			if err := writeFrame(conn, header{Op: opRead, Version: tc.version, Offset: tc.off, Length: tc.length}, tc.path, "", nil); err != nil {
				t.Fatal(err)
			}
			var frames []int64
			for {
				h, _, _, err := readFrame(conn, false)
				if err != nil {
					t.Fatal(err)
				}
				if h.Op == opData {
					frames = append(frames, h.Length)
					if _, err := io.CopyN(io.Discard, conn, h.Length); err != nil {
						t.Fatal(err)
					}
				} else if len(frames) > 0 || h.Length == 0 {
					break // the closing status, or the only one of an empty reply
				}
			}
			if fmt.Sprint(frames) != fmt.Sprint(tc.frames) {
				t.Fatalf("data frames of %v bytes, want %v", frames, tc.frames)
			}
		})
	}
}

// TestWireGetIsOneSnapshot races Gets against Appends: each Get returns
// the bytes of exactly one published version.
func TestWireGetIsOneSnapshot(t *testing.T) {
	addr, _ := serve(t, core.Options{PageSize: 4 << 10}, bsfs.Config{BlockSize: 64 << 10})
	const rec, appends = 24 << 10, 100
	data := pattern(rec * (appends + 1))
	w, r := dialTest(t, addr), dialTest(t, addr)
	if err := w.Put("/log", data[:rec]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= appends; i++ {
			if err := w.Append("/log", data[i*rec:(i+1)*rec]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := false; !done; {
		got, err := r.Get("/log", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(got)%rec != 0 || !bytes.Equal(got, data[:len(got)]) {
			t.Fatalf("get returned %d bytes: not one version of the file", len(got))
		}
		done = len(got) == len(data)
	}
	wg.Wait()
}

// TestTornUploadLeavesNoServerState declares 8 MiB, sends 5 and hangs
// up: the server commits the prefix, closes the writer and lets the
// connection's goroutine go.
func TestTornUploadLeavesNoServerState(t *testing.T) {
	addr, _ := serve(t, core.Options{PageSize: 64 << 10}, bsfs.Config{BlockSize: 1 << 20})
	c := dialTest(t, addr)
	if _, err := c.Stat("/"); err != nil { // the server's goroutine for c's connection now exists
		t.Fatal(err)
	}
	idle := runtime.NumGoroutine()
	data := pattern(8 << 20)
	conn := dialRaw(t, addr)
	if err := writeFrame(conn, header{Op: opWrite, Length: int64(len(data))}, "/torn", "", data[:5<<20]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	eventually(t, "the torn upload's prefix", func() bool {
		st, err := c.Stat("/torn")
		return err == nil && st.Size >= 4<<20
	})
	eventually(t, "the connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= idle })
	st, err := c.Stat("/torn")
	if err != nil || st.Size > 5<<20 {
		t.Fatalf("stat after tear = %+v, %v", st, err)
	}
	got, err := c.Get("/torn", 0)
	if err != nil || !bytes.Equal(got, data[:st.Size]) {
		t.Fatalf("torn file: %d bytes, %v; want the first %d sent", len(got), err, st.Size)
	}
	fresh := dialTest(t, addr)
	if err := fresh.Put("/after", data[:100]); err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.Get("/after", 0); err != nil || !bytes.Equal(got, data[:100]) {
		t.Fatalf("get after tear: %d bytes, %v", len(got), err)
	}
}

// TestRefusedRequestKeepsConnection: a well-formed request the server
// refuses has its payload skipped, and the same connection carries the
// next request.
func TestRefusedRequestKeepsConnection(t *testing.T) {
	c := startServer(t)
	data := pattern(6 << 20)
	if err := c.Put("/once", data); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("/once", data); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("second put = %v, want ErrExists", err)
	}
	if got, err := c.Get("/once", 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after a refused put: %d bytes, %v", len(got), err)
	}
}

// TestTypedErrorsOverWire: an error keeps its identity whichever call
// it answers.
func TestTypedErrorsOverWire(t *testing.T) {
	c := startServer(t)
	if _, err := c.Get("/missing", 0); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("get of a missing path = %v, want ErrNotFound", err)
	}
	if err := c.Append("/missing", []byte("x")); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("append to a missing path = %v, want ErrNotFound", err)
	}
	if err := c.Put("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("/f", []byte("again")); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("second put = %v, want ErrExists", err)
	}
	if _, err := c.Get("/f", 7); !errors.Is(err, core.ErrNoSuchVersion) {
		t.Fatalf("get at an unpublished version = %v, want ErrNoSuchVersion", err)
	}
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/d", 0); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("get of a directory = %v, want ErrIsDir", err)
	}
	if err := c.Put("/f/../g", nil); !errors.Is(err, fsapi.ErrBadPath) {
		t.Fatalf("put to a dotted path = %v, want ErrBadPath", err)
	}
	if err := c.Put("/d/in", nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		call string
		err  error
		want error
	}{
		{"stat of a missing path", second(c.Stat("/missing")), fsapi.ErrNotFound},
		{"list of a missing path", second(c.List("/missing")), fsapi.ErrNotFound},
		{"versions of a missing path", second(c.Versions("/missing")), fsapi.ErrNotFound},
		{"shards of a missing path", second(c.Shards("/missing")), fsapi.ErrNotFound},
		{"delete of a missing path", c.Delete("/missing"), fsapi.ErrNotFound},
		// Mkdir makes parents and accepts a directory that is there; what
		// it cannot replace is a file, and ErrExists is Rename's to give.
		{"mkdir over a file", c.Mkdir("/f"), fsapi.ErrNotDir},
		{"rename onto an existing file", c.Rename("/d/in", "/f"), fsapi.ErrExists},
		{"list of a file", second(c.List("/f")), fsapi.ErrNotDir},
		{"rename to a dotted path", c.Rename("/f", "/a/../b"), fsapi.ErrBadPath},
		{"delete of a non-empty directory", c.Delete("/d"), fsapi.ErrNotEmpty},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s = %v, want %v", tc.call, tc.err, tc.want)
		}
	}
	// An error with no code of its own still brings the server's words.
	//bsfs-vet:allow sentinelcmp -- for codeOther the message is all the wire carries: that it arrives is the assertion
	if _, err := c.Leave(99); err == nil || !strings.Contains(err.Error(), "99") {
		t.Errorf("leave of a non-member = %v, want the server's message naming node 99", err)
	}
}

// second drops a call's reply, keeping its error.
func second[T any](_ T, err error) error { return err }

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// TestOneConnectionPerClient: data and control calls interleave on the
// one connection a Client dials, each seeing what the ones before it did.
func TestOneConnectionPerClient(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &countingListener{Listener: inner}
	serveOn(t, l, core.Options{PageSize: 4 << 10}, bsfs.Config{BlockSize: 64 << 10})
	c := dialTest(t, l.Addr().String())

	data := pattern(100 << 10)
	if err := c.Put("/a/f", data); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stat("/a/f"); err != nil || st.Size != int64(len(data)) || st.IsDir {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	if got, err := c.Get("/a/f", 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %d bytes, %v", len(got), err)
	}
	if err := c.Rename("/a/f", "/a/g"); err != nil {
		t.Fatal(err)
	}
	if ls, err := c.List("/a"); err != nil || len(ls) != 1 || ls[0].Path != "/a/g" {
		t.Fatalf("list = %+v, %v", ls, err)
	}
	if pr, err := c.Providers(); err != nil || len(pr.Providers) != 3 {
		t.Fatalf("providers = %+v, %v", pr, err)
	}
	if got, err := c.Get("/a/g", 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after rename: %d bytes, %v", len(got), err)
	}
	if n := l.accepts.Load(); n != 1 {
		t.Fatalf("server accepted %d connections from one client, want 1", n)
	}
}

// TestWireAdmission: a server with per-tenant admission rejects an
// over-rate tenant with the typed overload error and its retry-after
// hint, while untenanted clients pass.
func TestWireAdmission(t *testing.T) {
	addr, _ := serve(t, core.Options{PageSize: 4 << 10, TenantRate: 1, TenantBurst: 2}, bsfs.Config{BlockSize: 64 << 10})
	greedy, plain := dialTest(t, addr), dialTest(t, addr)
	greedy.Tenant = "greedy"
	var rejected error
	for i := 0; i < 5 && rejected == nil; i++ {
		_, rejected = greedy.Get("/missing", 0)
		if errors.Is(rejected, fsapi.ErrNotFound) {
			rejected = nil // admitted
		}
	}
	if !errors.Is(rejected, core.ErrOverloaded) || core.RetryAfter(rejected) <= 0 {
		t.Fatalf("over-rate get = %v (retry after %v), want ErrOverloaded with a hint", rejected, core.RetryAfter(rejected))
	}
	// A rejected upload is skipped, not stored, and the stream stays in step.
	if err := greedy.Put("/g", pattern(100<<10)); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("over-rate put = %v, want ErrOverloaded", err)
	}
	if _, err := plain.Stat("/g"); err == nil {
		t.Fatal("a rejected put created its file")
	}
	for i := 0; i < 5; i++ {
		if err := plain.Put("/p", nil); err != nil && !errors.Is(err, fsapi.ErrExists) {
			t.Fatalf("untenanted put %d = %v", i, err)
		}
	}
	tr, err := plain.Tenants()
	if err != nil || !tr.Enabled || len(tr.Tenants) != 1 || tr.Tenants[0].Rejected < 2 || tr.Tenants[0].Inflight != 0 {
		t.Fatalf("tenants = %+v, %v", tr, err)
	}
}

// stream renders a connection's bytes: each header exactly as given
// (lengths are not filled in) followed by its tail.
func stream(frames ...any) []byte {
	var b []byte
	for _, f := range frames {
		switch f := f.(type) {
		case header:
			b, _ = binary.Append(b, binary.LittleEndian, f)
		case string:
			b = append(b, f...)
		}
	}
	return b
}

const noReply = -1

// hostile lists byte streams a served connection must survive, with the
// code of the first status frame the server must answer (noReply: it
// just hangs up). None leaves the server unread input, so the answer is
// never lost to a reset. file, if set, must exist afterwards holding
// data.
var hostile = []struct {
	name       string
	raw        []byte
	code       int
	file, data string
}{
	{name: "nothing", raw: nil, code: noReply},
	// Clients from before the one protocol opened with a plane byte: 'C'
	// and then gob, or 'D' and then these frames one byte out of step.
	{name: "old-control-client", raw: []byte("C"), code: noReply},
	{name: "old-data-client", raw: stream("D", header{Op: opRead, PathLen: 8, Length: math.MaxInt64}, "/missing"), code: codeOther},
	{name: "truncated-header", raw: stream(header{Op: opRead})[:17], code: noReply},
	{name: "unknown-op", raw: stream(header{Op: opDrain + 1}), code: codeOther},
	{name: "reply-op-as-request", raw: stream(header{Op: opStatus, Code: 3}), code: codeOther},
	{name: "unknown-flag", raw: stream(header{Op: opWrite, Flags: 0x80}), code: codeOther},
	{name: "path-over-bound", raw: stream(header{Op: opRead, PathLen: maxPath + 1}), code: codeOther},
	{name: "tenant-over-bound", raw: stream(header{Op: opRead, TenLen: maxTenant + 1}), code: codeOther},
	{name: "path-cut-short", raw: stream(header{Op: opRead, PathLen: 10}, "/some"), code: noReply},
	{name: "negative-offset", raw: stream(header{Op: opRead, Offset: -1, Length: 1}), code: codeOther},
	{name: "negative-length", raw: stream(header{Op: opWrite, Length: -1}), code: codeOther},
	{name: "most-negative-length", raw: stream(header{Op: opRead, Length: math.MinInt64}), code: codeOther},
	{name: "payload-never-sent", raw: stream(header{Op: opWrite, PathLen: 5, Length: 1 << 50}, "/huge"), code: noReply, file: "/huge"},
	{name: "payload-cut-short", raw: stream(header{Op: opWrite, PathLen: 4, Length: 1 << 40}, "/cut", "only this"), code: noReply, file: "/cut", data: "only this"},
	{name: "refused-and-payload-never-sent", raw: stream(header{Op: opWrite, Flags: flagAppend, PathLen: 8, Length: 1 << 50}, "/nowhere"), code: noReply},
	{name: "zero-length-put", raw: stream(header{Op: opWrite, PathLen: 5}, "/zero"), code: 0, file: "/zero"},
	{name: "read-of-a-missing-file", raw: stream(header{Op: opRead, PathLen: 8, Length: math.MaxInt64}, "/missing"), code: 2},
	{name: "control-flag", raw: stream(header{Op: opStat, Flags: flagAppend, PathLen: 1}, "/"), code: codeOther},
	{name: "control-payload-over-bound", raw: stream(header{Op: opRename, Length: maxPath + 1}), code: codeOther},
	{name: "rename-target-cut-short", raw: stream(header{Op: opWrite, PathLen: 5}, "/kept", header{Op: opRename, PathLen: 5, Length: 10}, "/kept", "/moved"), code: 0, file: "/kept"},
	{name: "rename-target-never-sent", raw: stream(header{Op: opRename, PathLen: 1, Length: 6}, "/"), code: noReply},
	{name: "stat-of-a-missing-path", raw: stream(header{Op: opStat, PathLen: 8}, "/missing"), code: 2},
	{name: "put-then-rename", raw: stream(header{Op: opWrite, PathLen: 5, Length: 2}, "/from", "cd", header{Op: opRename, PathLen: 5, Length: 3}, "/from", "/to"), code: 0, file: "/to", data: "cd"},
	{name: "put-then-read", raw: stream(header{Op: opWrite, PathLen: 4, Length: 2}, "/two", "ab", header{Op: opRead, PathLen: 4, Length: 9}, "/two"), code: 0, file: "/two", data: "ab"},
}

// throwAt writes raw at a fresh connection, half-closes it and returns
// what the server answers before it hangs up.
func throwAt(t testing.TB, addr string, raw []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	// The server may hang up mid-write or reset after its answer; the
	// bytes that did come back are the result either way.
	_, _ = conn.Write(raw)
	_ = conn.(*net.TCPConn).CloseWrite()
	reply, _ := io.ReadAll(conn)
	return reply
}

// TestServeFrameTable throws each hostile stream at a server. The server
// must answer as listed (not hang, not panic), must not allocate for
// bytes it was only promised, and must go on serving. The most a stream
// may allocate is one block plus small change: an upload that promises
// more than it sends gets one writer's pending block (72–76 KiB
// measured, 84 KiB under the race runtime), and a read fills reader
// blocks of the same size.
func TestServeFrameTable(t *testing.T) {
	const block = 64 << 10
	addr, _ := serve(t, core.Options{PageSize: 4 << 10}, bsfs.Config{BlockSize: block})
	c := dialTest(t, addr)
	for _, tc := range hostile {
		t.Run(tc.name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			reply := throwAt(t, addr, tc.raw)
			runtime.ReadMemStats(&m1)
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2*block {
				t.Errorf("%d bytes allocated serving a %d-byte stream", grew, len(tc.raw))
			}
			var h header
			switch err := binary.Read(bytes.NewReader(reply), binary.LittleEndian, &h); {
			case tc.code == noReply && len(reply) > 0:
				t.Errorf("server answered %d bytes, want a hang-up", len(reply))
			case tc.code != noReply && (err != nil || h.Op != opStatus || int(h.Code) != tc.code):
				t.Errorf("first reply frame = %+v (%v), want status code %d", h, err, tc.code)
			}
			if tc.file != "" {
				eventually(t, "the stream's file", func() bool {
					got, err := c.Get(tc.file, 0)
					return err == nil && string(got) == tc.data
				})
			}
			if err := c.Put("/canary/"+tc.name, []byte("alive")); err != nil {
				t.Fatalf("server stopped serving: %v", err)
			}
		})
	}
}

// FuzzServeFrame feeds arbitrary bytes to a served connection. The seed
// corpus is the hostile table; plain `go test` runs exactly that. Each
// input meets a fresh server, so a finding reproduces from its input
// alone. Leave and drain are calls like any other: an input that moves
// the membership epoch may have taken the canary's pages with it, and
// then only has to leave the server answering.
func FuzzServeFrame(f *testing.F) {
	for _, tc := range hostile {
		f.Add(tc.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		addr, dep := serve(t, core.Options{PageSize: 4 << 10}, bsfs.Config{BlockSize: 64 << 10})
		c := dialTest(t, addr)
		if err := c.Put("/canary", []byte("alive")); err != nil {
			t.Fatal(err)
		}
		epoch := dep.Placement.Epoch()
		throwAt(t, addr, raw)
		pr, err := c.Providers()
		if err != nil {
			t.Fatalf("server stopped serving: %v", err)
		}
		if got, err := c.Get("/canary", 0); pr.Epoch == epoch && (err != nil || string(got) != "alive") {
			t.Fatalf("server stopped serving: %q, %v", got, err)
		}
	})
}

// BenchmarkWireFile moves one 8 MiB file per iteration over loopback
// through the deployment shape of the tcp-files workload (256 KiB
// pages, 4 MiB blocks) without its disk.
func BenchmarkWireFile(b *testing.B) {
	const size = 8 << 20
	data := pattern(size)
	b.Run("put", func(b *testing.B) {
		// Puts accumulate; a small cache over a discarding backend
		// bounds what the run holds in memory.
		opts := core.Options{PageSize: 256 << 10, Provider: core.ProviderConfig{MemCapacity: 16 << 20, Store: "null:"}}
		addr, _ := serve(b, opts, bsfs.Config{BlockSize: 4 << 20})
		c := dialTest(b, addr)
		name := []byte("/put/f00000000")
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint32(name[len(name)-4:], uint32(i)|0x80808080)
			if err := c.Put(string(name), data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		addr, _ := serve(b, core.Options{PageSize: 256 << 10}, bsfs.Config{BlockSize: 4 << 20})
		c := dialTest(b, addr)
		if err := c.Put("/f", data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := c.Get("/f", 0)
			if err != nil || len(got) != size {
				b.Fatalf("get: %d bytes, %v", len(got), err)
			}
		}
	})
}
