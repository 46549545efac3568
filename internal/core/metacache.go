// metacache.go is the client's metadata cache: decoded tree nodes by
// key, in a sharded LRU whose entries live in slots, not objects.

package core

import (
	"math/bits"
	"sync"

	"repro/internal/dht"
)

// cachedMeta caches metadata tree nodes client-side, decoded, with LRU
// eviction. Tree nodes are put once and never modified — a version's
// tree never changes, and a migration moves pages without rewriting the
// leaves that name their write-time holders — so the cache needs no
// invalidation. The original BlobSeer client caches metadata the same
// way.
//
// The cache is split over lock stripes, so concurrent readers and
// writers of different nodes never serialize on one mutex. A key routes
// to its shard by a hash of its fields. A shard keeps its entries in
// slots linked into an LRU list by position, and finds them
// through an open-addressed table of slot numbers, so an entry is not a
// heap object of its own and a hit allocates nothing.
type cachedMeta struct {
	cl     *dht.Client
	shards []metaShard
	mask   uint64
}

// metaShard is one lock stripe. Its n slots are linked into an LRU list
// from head (most recently used) to tail; -1 ends the list. They live in
// segments of 1, 2, 4, ... up to segSlots slots, then segSlots each, so
// the shard grows without copying and leaves fewer than segSlots slots
// unused. Once it holds cap slots, an insert takes over the tail. table
// maps a key to its slot by linear probing from the key's hash: a cell
// holds slot+1, 0 marks it empty, and the table is kept at most half
// full.
type metaShard struct {
	mu         sync.Mutex
	segs       [][]metaSlot
	n, cap     int32
	table      []int32
	head, tail int32
	_          [56]byte // pads a shard to two cache lines: no two shards share one
}

type metaSlot struct {
	key        nodeKey
	node       treeNode
	prev, next int32
}

// newCachedMeta builds a cache of the given total capacity (entries)
// split evenly over shards, rounded up to a power of two; every shard
// holds at least one entry.
func newCachedMeta(cl *dht.Client, shards, capacity int) *cachedMeta {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &cachedMeta{cl: cl, shards: make([]metaShard, n), mask: uint64(n - 1)}
	const cells = 4
	tables := make([]int32, cells*n)
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = int32(max((capacity+n-1)/n, 1))
		s.table = tables[cells*i : cells*(i+1) : cells*(i+1)]
		s.head, s.tail = -1, -1
	}
	return c
}

// hash mixes a key's fields and finishes with a 64-bit finalizer, so
// every field reaches every bit; the low bits pick the shard, the high
// bits the shard's table cell.
func (k nodeKey) hash() uint64 {
	h := uint64(k.blob)*0x9e3779b97f4a7c15 ^ uint64(k.version)*0xbf58476d1ce4e5b9 ^ uint64(k.pages.off)*0x94d049bb133111eb ^ uint64(k.pages.count)
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func (c *cachedMeta) shard(k nodeKey) *metaShard { return &c.shards[k.hash()&c.mask] }

// cached returns the node under k and marks it most recently used.
func (c *cachedMeta) cached(k nodeKey) (treeNode, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, i := s.find(k)
	if i < 0 {
		return treeNode{}, false
	}
	s.unlink(i)
	s.pushFront(i)
	return s.slot(i).node, true
}

// remember caches n under k, replacing what k held, as the most
// recently used entry; a full shard evicts its least recently used one,
// never the entry just inserted.
func (c *cachedMeta) remember(k nodeKey, n treeNode) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	cell, i := s.find(k)
	switch {
	case i >= 0:
		s.unlink(i)
	case s.n < s.cap:
		i = s.n
		if seg, _ := segOf(i); seg == len(s.segs) {
			s.segs = append(s.segs, make([]metaSlot, min(i+1, segSlots)))
		}
		s.n++
		s.slot(i).key = k
		if 2*int(s.n) > len(s.table) {
			s.grow()
			cell, _ = s.find(k)
		}
		s.table[cell] = i + 1
	default:
		i = s.tail
		s.unlink(i)
		old, _ := s.find(s.slot(i).key)
		s.remove(old)
		cell, _ = s.find(k)
		s.table[cell] = i + 1
	}
	e := s.slot(i)
	e.key, e.node = k, n
	s.pushFront(i)
}

const segSlots = 32

// segOf locates slot i: its segment and its place in the segment.
func segOf(i int32) (seg int, at int32) {
	if i < 2*segSlots-1 {
		seg = bits.Len32(uint32(i+1)) - 1
		return seg, i + 1 - 1<<seg
	}
	i -= 2*segSlots - 1
	return bits.Len32(segSlots) + int(i/segSlots), i % segSlots
}

func (s *metaShard) slot(i int32) *metaSlot {
	seg, at := segOf(i)
	return &s.segs[seg][at]
}

// find returns k's slot and the table cell naming it, or, if k is not
// cached, slot -1 and the empty cell where it belongs.
func (s *metaShard) find(k nodeKey) (cell int, slot int32) {
	mask := len(s.table) - 1
	for cell = int(k.hash()>>32) & mask; ; cell = (cell + 1) & mask {
		if slot = s.table[cell] - 1; slot < 0 || s.slot(slot).key == k {
			return cell, slot
		}
	}
}

// grow doubles the table and re-indexes every slot.
func (s *metaShard) grow() {
	s.table = make([]int32, 2*len(s.table))
	for i := range s.n {
		cell, _ := s.find(s.slot(i).key)
		s.table[cell] = i + 1
	}
}

// remove empties a cell and shifts back the entries probing past it, so
// no lookup ever needs a tombstone.
func (s *metaShard) remove(cell int) {
	mask := len(s.table) - 1
	for next := (cell + 1) & mask; s.table[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole unless its home cell lies
		// cyclically within (cell, next].
		home := int(s.slot(s.table[next]-1).key.hash()>>32) & mask
		if (next-home)&mask >= (next-cell)&mask {
			s.table[cell] = s.table[next]
			cell = next
		}
	}
	s.table[cell] = 0
}

func (s *metaShard) unlink(i int32) {
	e := s.slot(i)
	if e.prev >= 0 {
		s.slot(e.prev).next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.slot(e.next).prev = e.prev
	} else {
		s.tail = e.prev
	}
}

func (s *metaShard) pushFront(i int32) {
	e := s.slot(i)
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.slot(s.head).prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// fetch reads encoded nodes from the DHT by position (dht.Client.Fetch).
func (c *cachedMeta) fetch(keys, vals [][]byte) { c.cl.Fetch(keys, vals) }

// put stores nodes in the DHT in one batch, their keys and values
// rendered into one pooled buffer (the servers copy them), and, once
// they are stored, caches them.
func (c *cachedMeta) put(nodes []keyedNode) error {
	b := walkPool.Get().(*walkBufs)
	defer b.release()
	b.keyBuf, b.keys, b.vals = b.keyBuf[:0], b.keys[:0], b.vals[:0]
	for _, kn := range nodes {
		// Windows keep their bytes when keyBuf grows, as in walkTree.
		from := len(b.keyBuf)
		b.keyBuf = kn.key.appendTo(b.keyBuf)
		mid := len(b.keyBuf)
		b.keyBuf = kn.node.appendEncoded(b.keyBuf, kn.key.pages.leaf())
		b.keys, b.vals = append(b.keys, b.keyBuf[from:mid]), append(b.vals, b.keyBuf[mid:])
	}
	if err := c.cl.Store(b.keys, b.vals); err != nil {
		return err
	}
	for _, kn := range nodes {
		c.remember(kn.key, kn.node)
	}
	return nil
}
