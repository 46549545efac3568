// pool.go pools the scratch buffers of the client data path: the write
// path's extended assembly buffer and the read gather's page staging.
// Buffers cycle strictly within one operation — taken at the start,
// handed to provider/store calls that copy out of them (pagestore.Put
// copies on ingest; gather staging is copied into the caller's
// destination), and returned before the operation completes — so
// nothing long-lived ever aliases a pooled buffer.

package core

import "sync"

// pageBuf wraps a pooled byte slice. The pointer wrapper (not the
// slice itself) goes through the sync.Pool, so Put costs no
// interface-boxing allocation and the capacity survives recycling.
type pageBuf struct {
	b []byte
}

var bufPool = sync.Pool{New: func() any { return new(pageBuf) }}

// getBuf returns a buffer of length n whose contents are whatever its
// last user left: every caller overwrites what it reads back (the write
// path clears the fragments it does not merge or copy over).
func getBuf(n int64) *pageBuf {
	pb := bufPool.Get().(*pageBuf)
	if int64(cap(pb.b)) < n {
		pb.b = make([]byte, n)
	} else {
		pb.b = pb.b[:n]
	}
	return pb
}

// putBuf recycles a buffer. The caller must not touch pb.b afterwards.
func putBuf(pb *pageBuf) {
	bufPool.Put(pb)
}

// bufArena hands out pooled buffers to concurrent borrowers (the
// gather fan-out's per-provider workers) and releases them all at
// once when the operation is done with the staged bytes.
type bufArena struct {
	mu   sync.Mutex
	bufs []*pageBuf
}

// alloc is the staging allocator handed to Provider.getPagesInto. Safe
// for concurrent use.
func (a *bufArena) alloc(n int64) []byte {
	pb := getBuf(n)
	a.mu.Lock()
	a.bufs = append(a.bufs, pb)
	a.mu.Unlock()
	return pb.b
}

// release recycles every buffer handed out so far.
func (a *bufArena) release() {
	for _, pb := range a.bufs {
		putBuf(pb)
	}
	a.bufs = nil
}
