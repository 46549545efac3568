// meta.go implements BlobSeer's versioned metadata: a binary segment
// tree over a blob's pages, rebuilt partially on every write so that
// unmodified subtrees are shared between versions.
//
// Every tree node is identified by the key (blob, version, pageOffset,
// pageCount) and stored in the metadata DHT. A write with version v and
// page span S creates:
//
//   - a leaf for every page in S, pointing at the providers holding
//     that page's new contents;
//   - every inner node whose canonical range intersects S, up to the
//     root [0, cap_v);
//   - "spine" nodes [0, c) for every capacity doubling between
//     cap_{v-1} and cap_v not already created above (a write far past
//     the old end of the blob grows the tree without touching old
//     ranges).
//
// A created node's child that was *not* created by v is borrowed: its
// key version is the latest non-aborted w < v that created a node with
// exactly that range. The version manager resolves these from its write
// records when it assigns v and hands them out with the ticket, so
// concurrent writers build their metadata in parallel without reading
// each other's trees or holding any history. A child range never
// touched by any version is a hole and reads as zeros.
//
// The manager answers borrows from one creator index (creatorIndex) per
// blob, extended as each version is assigned and laid out the way a
// segment tree stores an interval, so a record costs O(log capacity)
// entries however many pages it spans. Descending from the record's
// root, a range its span covers whole is listed once under full — the
// record created it and everything beneath it — and the descent stops
// there; a range it created by touching only part of it (the ancestors
// of the span's two ends) or as a spine node is listed under exact. The
// creators of a range r are then exact[r] plus full[a] for a = r and
// each of its ancestors, each list newest first: a borrow is a few map
// lookups, whatever the history's length.

package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"repro/internal/cluster"
)

// BlobID identifies a blob within a BlobSeer deployment.
type BlobID uint64

// Version numbers a blob snapshot. Version 0 is the empty blob; the
// first write creates version 1.
type Version uint64

// LatestVersion is the sentinel clients pass to read the most recent
// published snapshot.
const LatestVersion = ^Version(0)

// WriteRecord is the version manager's account of one write: the span
// it covered and the blob geometry after it. Records are the only
// shared state concurrent metadata builders need.
//
// Blob names the blob the version's tree nodes and pages are keyed
// under. After Clone it differs from the blob being read: a cloned
// blob's inherited versions keep pointing at the source blob's nodes
// (copy-on-write sharing), while its new writes are keyed under the
// clone.
type WriteRecord struct {
	blob      BlobID
	Version   Version
	Offset    int64 // byte offset of the write
	Length    int64 // byte length of the write
	SizeAfter int64 // blob size after this write
	capAfter  int64 // tree capacity (pages) after this write
	Aborted   bool  // version tombstoned by the version manager
	ready     bool  // published by its writer, perhaps still behind the frontier
}

// pageRange is a canonical tree range measured in pages: Count is a
// power of two and Off a multiple of Count.
type pageRange struct {
	off   int64
	count int64
}

func (r pageRange) end() int64 { return r.off + r.count }
func (r pageRange) leaf() bool { return r.count == 1 }
func (r pageRange) left() pageRange {
	return pageRange{off: r.off, count: r.count / 2}
}
func (r pageRange) right() pageRange {
	return pageRange{off: r.off + r.count/2, count: r.count / 2}
}

func (r pageRange) intersects(lo, hi int64) bool { return r.off < hi && lo < r.end() }

// nodeKey identifies a metadata tree node in the DHT.
type nodeKey struct {
	blob    BlobID
	version Version
	pages   pageRange
}

// appendTo appends the DHT key rendering ("m/blob/version/off/count")
// to dst. The format is pinned by TestKeyFormatsPinned: node keys are
// durable DHT content, so changing it orphans every stored tree.
func (k nodeKey) appendTo(dst []byte) []byte {
	dst = append(dst, 'm', '/')
	dst = strconv.AppendUint(dst, uint64(k.blob), 10)
	dst = append(dst, '/')
	dst = strconv.AppendUint(dst, uint64(k.version), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, k.pages.off, 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, k.pages.count, 10)
	return dst
}

// appendPageKey appends the provider-store key rendering
// ("p/blob/version/page") to dst. Pinned like NodeKey.appendTo: page
// keys name durable provider-store entries.
func appendPageKey(dst []byte, blob BlobID, v Version, page int64) []byte {
	dst = append(dst, 'p', '/')
	dst = strconv.AppendUint(dst, uint64(blob), 10)
	dst = append(dst, '/')
	dst = strconv.AppendUint(dst, uint64(v), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, page, 10)
	return dst
}

// pageKey renders the provider-store key of one page of one version.
func pageKey(blob BlobID, v Version, page int64) string {
	var buf [48]byte
	return string(appendPageKey(buf[:0], blob, v, page))
}

// treeNode is a decoded metadata node, a leaf or an inner node as its
// range says: a leaf names where its page's data lives, an inner node
// its two children (ranges are implied halves; version 0 means hole).
// Children may live in a different blob's key space after cloning.
type treeNode struct {
	providers   []cluster.NodeID // leaf: replica set, primary first
	left, right nodeRef          // inner
}

// keyedNode is a node under its key, as a write builds it.
type keyedNode struct {
	key  nodeKey
	node treeNode
}

// pageSpan converts a byte span to the page span it covers.
func pageSpan(off, length, pageSize int64) (lo, hi int64) {
	if length <= 0 {
		return 0, 0
	}
	return off / pageSize, (off + length + pageSize - 1) / pageSize
}

// capacityPages returns the tree capacity (a power of two >= 1) for a
// blob of size bytes with the given page size.
func capacityPages(size, pageSize int64) int64 {
	pages := (size + pageSize - 1) / pageSize
	if pages <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(pages-1))
}

// span is the tree geometry of one write: the pages it covers and the
// tree capacity before (0: no tree yet) and after it.
type span struct {
	lo, hi              int64
	capBefore, capAfter int64
}

func spanOf(rec WriteRecord, capBefore, pageSize int64) span {
	lo, hi := pageSpan(rec.Offset, rec.Length, pageSize)
	return span{lo: lo, hi: hi, capBefore: capBefore, capAfter: rec.capAfter}
}

// creates reports whether the write created the node with range r.
func (s span) creates(r pageRange) bool {
	if r.intersects(s.lo, s.hi) && r.end() <= s.capAfter {
		return true
	}
	// Spine: capacity-growth prefixes [0, c), capBefore < c <= capAfter.
	return r.off == 0 && r.count > s.capBefore && r.count <= s.capAfter
}

// covers reports whether the write's span contains r whole.
func (s span) covers(r pageRange) bool { return s.lo <= r.off && r.end() <= s.hi }

// capBefore returns the tree capacity in effect before version v, given
// records contiguous from version 1 (before the first write there is
// no tree).
func capBefore(records []WriteRecord, v Version) int64 {
	if v < 2 || int(v-1) > len(records) {
		return 0
	}
	return records[v-2].capAfter
}

// nodeRef identifies a borrowed child: the key space (the source blob's,
// after a clone) and version of the newest surviving node with the
// child's range, zero for a hole.
type nodeRef struct {
	blob BlobID
	ver  Version
}

// creatorIndex answers borrows over one blob's records at the version
// manager (layout in the file comment). Each range's creators chain
// newest first through one append-only log: a borrow is resolved as its
// ticket is assigned, so the answer is the chain's head unless the
// newest creators aborted.
type creatorIndex struct {
	exact map[pageRange]int // created by touching part of the range, or as spine
	full  map[pageRange]int // span covers the range: created it and all beneath
	log   []creator         // chain heads and links are positions+1; 0 ends a chain
}

type creator struct {
	ver  Version
	prev int
}

func (ix *creatorIndex) list(m map[pageRange]int, r pageRange, v Version) {
	ix.log = append(ix.log, creator{ver: v, prev: m[r]})
	m[r] = len(ix.log)
}

// push appends rec, the next version's record, and indexes it in one
// descent from its root that stops at ranges its span covers whole
// (nothing beneath them is borrowed). On the way it appends to borrows,
// in buildNodes' visit order, the identity of every child rec does not
// create: the newest non-aborted creator below rec's version among the
// child's exact and full entries and the full entries of its ancestors,
// which the descent carries down as inherited.
func (b *blobState) push(rec WriteRecord, borrows []nodeRef) []nodeRef {
	b.records = append(b.records, rec)
	d := descent{b: b, s: spanOf(rec, capBefore(b.records, rec.Version), b.pageSize), v: rec.Version, borrows: borrows}
	d.visit(pageRange{count: rec.capAfter}, 0)
	return d.borrows
}

// newest returns the newest non-aborted creator at or below v on the
// chain from head, 0 if none. Aborted versions are skipped: their
// writer may have died before the metadata reached the DHT, so linking
// their nodes would leave a dangling reference; the range falls back to
// the newest surviving creator, or reads as a hole.
func (b *blobState) newest(head int, v Version) Version {
	for head != 0 {
		c := b.index.log[head-1]
		if c.ver <= v && !b.records[c.ver-1].Aborted {
			return c.ver
		}
		head = c.prev
	}
	return 0
}

// creator returns the newest non-aborted version at or below v that
// created range r, 0 if none: exact[r], and full[a] for r and every
// ancestor within the capacity at v.
func (b *blobState) creator(v Version, r pageRange) Version {
	if v == 0 {
		return 0
	}
	w := b.newest(b.index.exact[r], v)
	for a := r; a.count <= b.records[v-1].capAfter; a = (pageRange{off: a.off &^ (2*a.count - 1), count: 2 * a.count}) {
		w = max(w, b.newest(b.index.full[a], v))
	}
	return w
}

type descent struct {
	b       *blobState
	s       span
	v       Version
	borrows []nodeRef
}

// visit lists d.v under r and resolves r's borrowed children. Listing
// first is safe: a borrow reads only entries below d.v, and d.v lists
// itself in no range it borrows.
func (d *descent) visit(r pageRange, inherited Version) {
	ix := &d.b.index
	if d.s.covers(r) {
		ix.list(ix.full, r, d.v)
		return
	}
	ix.list(ix.exact, r, d.v)
	inherited = max(inherited, d.b.newest(ix.full[r], d.v-1))
	if r.leaf() {
		return // a spine leaf: nothing beneath
	}
	for _, half := range [2]pageRange{r.left(), r.right()} {
		if d.s.creates(half) {
			d.visit(half, inherited)
			continue
		}
		w := max(inherited, d.b.newest(ix.exact[half], d.v-1), d.b.newest(ix.full[half], d.v-1))
		ref := nodeRef{ver: w}
		if w != 0 {
			ref.blob = d.b.records[w-1].blob
		}
		d.borrows = append(d.borrows, ref)
	}
}

// appendEncoded / decodeNode wire formats: 1-byte tag then fixed fields.
const (
	tagInner = 1
	tagLeaf  = 2
)

// appendEncoded appends the node, as the DHT stores it, to dst.
func (n treeNode) appendEncoded(dst []byte, leaf bool) []byte {
	if leaf {
		dst = append(dst, tagLeaf, byte(len(n.providers)))
		for _, p := range n.providers {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
		}
		return dst
	}
	dst = append(dst, tagInner)
	for _, x := range [4]uint64{uint64(n.left.blob), uint64(n.left.ver), uint64(n.right.blob), uint64(n.right.ver)} {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// decodeNode decodes a node of the kind its range implies. A leaf's
// replica set is appended to ids, and the node keeps that window of it,
// so the leaves of one fetch can share one array.
func decodeNode(b []byte, leaf bool, ids []cluster.NodeID) (treeNode, []cluster.NodeID, error) {
	var n treeNode
	want := byte(tagInner)
	if leaf {
		want = tagLeaf
	}
	switch {
	case len(b) < 1:
		return n, ids, fmt.Errorf("core: empty metadata node")
	case b[0] != want:
		return n, ids, fmt.Errorf("core: metadata node tag %d, want %d", b[0], want)
	case !leaf:
		if len(b) < 33 {
			return n, ids, fmt.Errorf("core: short inner node (%d bytes)", len(b))
		}
		n.left = nodeRef{blob: BlobID(binary.LittleEndian.Uint64(b[1:])), ver: Version(binary.LittleEndian.Uint64(b[9:]))}
		n.right = nodeRef{blob: BlobID(binary.LittleEndian.Uint64(b[17:])), ver: Version(binary.LittleEndian.Uint64(b[25:]))}
		return n, ids, nil
	case len(b) < 2 || len(b) < 2+8*int(b[1]):
		return n, ids, fmt.Errorf("core: short leaf node (%d bytes)", len(b))
	}
	from := len(ids)
	for i := range int(b[1]) {
		ids = append(ids, cluster.NodeID(binary.LittleEndian.Uint64(b[2+8*i:])))
	}
	n.providers = ids[from:len(ids):len(ids)]
	return n, ids, nil
}

// pagePlacement is the replica-set view buildNodes consumes: sets[i]
// holds the replicas of page lo+i of a contiguous written span. It is
// a plain slice window so the write path can hand the placement
// manager's output straight through without building a per-page map.
type pagePlacement struct {
	lo   int64
	sets [][]cluster.NodeID
}

func (pl pagePlacement) at(page int64) []cluster.NodeID {
	i := page - pl.lo
	if i < 0 || i >= int64(len(pl.sets)) {
		return nil
	}
	return pl.sets[i]
}

// buildPool recycles the write path's tree builders.
var buildPool = sync.Pool{New: func() any { return new(treeBuild) }}

// treeBuild builds the metadata trees of one call's versions into out.
type treeBuild struct {
	out       []keyedNode
	borrows   []nodeRef // the current version's, consumed in visit order
	rec       WriteRecord
	s         span
	placement pagePlacement
}

// buildNodes adds every metadata node one write must publish, from its
// ticket: the record (its Blob names the key space the new nodes live
// in), the tree capacity before it and the borrowed children the
// version manager resolved. placement maps each written page index to
// its replica set.
func (b *treeBuild) buildNodes(t Ticket, pageSize int64, placement pagePlacement) {
	rec := t.Record
	b.rec, b.s, b.borrows, b.placement = rec, spanOf(rec, t.capBefore, pageSize), t.borrows, placement
	root := pageRange{off: 0, count: rec.capAfter}
	if !b.s.creates(root) {
		// Cannot happen for a non-empty write: the root always
		// intersects the span or is a spine prefix.
		panic(fmt.Sprintf("core: root %v not created by version %d (span [%d,%d))", root, rec.Version, b.s.lo, b.s.hi))
	}
	b.node(root)
}

func (b *treeBuild) node(r pageRange) {
	var n treeNode
	if r.leaf() {
		n.providers = b.placement.at(r.off)
	} else {
		n.left = b.child(r.left())
		n.right = b.child(r.right())
	}
	b.out = append(b.out, keyedNode{key: nodeKey{blob: b.rec.blob, version: b.rec.Version, pages: r}, node: n})
}

// release returns b to buildPool, keeping only the capacity of its
// node list: the replica sets the list named now belong to the cache.
func (b *treeBuild) release() {
	clear(b.out)
	*b = treeBuild{out: b.out[:0]}
	buildPool.Put(b)
}

// child builds the child range half if the write creates it, and
// otherwise takes the next borrow; it returns the child's reference.
func (b *treeBuild) child(half pageRange) nodeRef {
	if !b.s.creates(half) {
		ref := b.borrows[0]
		b.borrows = b.borrows[1:]
		return ref
	}
	b.node(half)
	return nodeRef{blob: b.rec.blob, ver: b.rec.Version}
}

// PageLoc describes where one page of a snapshot lives. Blob names the
// key space the page is stored under (the source blob, for inherited
// pages of a clone).
type PageLoc struct {
	Page      int64 // page index within the reading blob
	blob      BlobID
	Version   Version
	Providers []cluster.NodeID // empty for holes (zero pages); shared with the metadata cache, so read-only
}

// Key returns the provider-store key for the page ("" for holes).
func (p PageLoc) Key() string {
	if len(p.Providers) == 0 {
		return ""
	}
	return pageKey(p.blob, p.Version, p.Page)
}

// nodeSource is the metadata DHT as the tree walk reads it: decoded
// nodes cached by key (cached, remember), in front of a batched fetch
// of encoded ones that returns values by position (fetch).
type nodeSource interface {
	cached(k nodeKey) (treeNode, bool)
	remember(k nodeKey, n treeNode)
	fetch(keys, vals [][]byte)
}

// walkTree resolves the leaves covering pages [lo, hi) of version v of
// rootBlob (whose root tree node lives under rootMetaBlob after
// cloning), issuing one batched DHT get per tree level for the nodes
// src has not cached. Holes are reported with empty provider sets.
//
// aborted (optional) resolves whether a version was tombstoned. A tree
// may legitimately link a subtree of a version that later aborted: the
// linking writer's ticket named it as a borrow before the abort, and
// the aborted writer may have died before its own nodes reached the
// DHT. Such a missing subtree is a hole (the aborted write was never
// visible), not corruption — but only the version manager can tell the
// two apart, so without a probe a missing node stays a hard error.
func walkTree(rootMetaBlob BlobID, v Version, capPages int64, lo, hi int64, src nodeSource, aborted func(BlobID, Version) bool) ([]PageLoc, error) {
	if hi > capPages {
		hi = capPages
	}
	if lo >= hi {
		return nil, nil
	}
	b := walkPool.Get().(*walkBufs)
	defer b.release()
	b.frontier = append(b.frontier[:0], nodeKey{blob: rootMetaBlob, version: v, pages: pageRange{count: capPages}})
	leaves := make([]PageLoc, 0, hi-lo)
	for len(b.frontier) > 0 {
		b.slots, b.keyBuf, b.keys, b.missed = b.slots[:0], b.keyBuf[:0], b.keys[:0], b.missed[:0]
		for i, k := range b.frontier {
			n, ok := src.cached(k)
			b.slots = append(b.slots, walkSlot{n, ok})
			if !ok {
				// A key keeps its bytes when keyBuf grows: they stay in
				// the old array, which nothing writes again.
				from := len(b.keyBuf)
				b.keyBuf = k.appendTo(b.keyBuf)
				b.keys = append(b.keys, b.keyBuf[from:])
				b.missed = append(b.missed, i)
			}
		}
		if len(b.missed) > 0 {
			b.vals = slices.Grow(b.vals[:0], len(b.keys))[:len(b.keys)]
			src.fetch(b.keys, b.vals)
			// Every range of a level has the same size: the level is all
			// leaves or all inner nodes, and its leaves share one array.
			leaf := b.frontier[0].pages.leaf()
			var ids []cluster.NodeID
			if leaf {
				count := 0
				for _, v := range b.vals {
					if len(v) > 1 {
						count += int(v[1])
					}
				}
				ids = make([]cluster.NodeID, 0, count)
			}
			for j, i := range b.missed {
				if b.vals[j] == nil {
					continue // absent: resolved in frontier order below
				}
				k := b.frontier[i]
				n, rest, err := decodeNode(b.vals[j], leaf, ids)
				if err != nil {
					return nil, fmt.Errorf("core: node %s: %w", k.appendTo(nil), err)
				}
				ids = rest
				src.remember(k, n)
				b.slots[i] = walkSlot{n, true}
			}
		}
		b.next = b.next[:0]
		for i, k := range b.frontier {
			s := b.slots[i]
			if !s.ok {
				// The node is genuinely absent from the DHT.
				if aborted != nil && aborted(k.blob, k.version) {
					appendHoles(&leaves, k.pages, lo, hi)
					continue
				}
				return nil, fmt.Errorf("core: missing metadata node %s", k.appendTo(nil))
			}
			if k.pages.leaf() {
				leaves = append(leaves, PageLoc{Page: k.pages.off, blob: k.blob, Version: k.version, Providers: s.n.providers})
				continue
			}
			for _, half := range [2]pageRange{k.pages.left(), k.pages.right()} {
				if !half.intersects(lo, hi) {
					continue
				}
				child := s.n.left
				if half.off != k.pages.off {
					child = s.n.right
				}
				if child.ver == 0 {
					appendHoles(&leaves, half, lo, hi)
					continue
				}
				b.next = append(b.next, nodeKey{blob: child.blob, version: child.ver, pages: half})
			}
		}
		b.frontier, b.next = b.next, b.frontier
	}
	return leaves, nil
}

// walkBufs is a tree walk's scratch, pooled across walks: the level
// buffers, and the keys of one level's misses (their frontier positions
// in missed) rendered into one buffer, with their values fetched by
// position. cachedMeta.put borrows it to render a batch's keys and
// values.
type walkBufs struct {
	frontier, next []nodeKey
	slots          []walkSlot // the frontier's nodes, ok if cached or fetched
	keyBuf         []byte
	missed         []int
	keys, vals     [][]byte
}

type walkSlot struct {
	n  treeNode
	ok bool
}

var walkPool = sync.Pool{New: func() any { return new(walkBufs) }}

// release returns b to the pool without the nodes and values it points
// at.
func (b *walkBufs) release() {
	clear(b.slots[:cap(b.slots)])
	clear(b.vals[:cap(b.vals)])
	walkPool.Put(b)
}

// appendHoles adds zero-page leaves for the portion of r within
// [lo, hi).
func appendHoles(leaves *[]PageLoc, r pageRange, lo, hi int64) {
	from, to := r.off, r.end()
	if from < lo {
		from = lo
	}
	if to > hi {
		to = hi
	}
	for p := from; p < to; p++ {
		*leaves = append(*leaves, PageLoc{Page: p})
	}
}
