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
	"strconv"

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
	Blob      BlobID
	Version   Version
	Offset    int64 // byte offset of the write
	Length    int64 // byte length of the write
	SizeAfter int64 // blob size after this write
	CapAfter  int64 // tree capacity (pages) after this write
	Aborted   bool  // version tombstoned by the version manager
}

// PageRange is a canonical tree range measured in pages: Count is a
// power of two and Off a multiple of Count.
type PageRange struct {
	Off   int64
	Count int64
}

func (r PageRange) end() int64 { return r.Off + r.Count }
func (r PageRange) leaf() bool { return r.Count == 1 }
func (r PageRange) left() PageRange {
	return PageRange{Off: r.Off, Count: r.Count / 2}
}
func (r PageRange) right() PageRange {
	return PageRange{Off: r.Off + r.Count/2, Count: r.Count / 2}
}

func (r PageRange) intersects(lo, hi int64) bool { return r.Off < hi && lo < r.end() }

// NodeKey identifies a metadata tree node in the DHT.
type NodeKey struct {
	Blob    BlobID
	Version Version
	Range   PageRange
}

// appendTo appends the DHT key rendering ("m/blob/version/off/count")
// to dst. The format is pinned by TestKeyFormatsPinned: node keys are
// durable DHT content, so changing it orphans every stored tree.
func (k NodeKey) appendTo(dst []byte) []byte {
	dst = append(dst, 'm', '/')
	dst = strconv.AppendUint(dst, uint64(k.Blob), 10)
	dst = append(dst, '/')
	dst = strconv.AppendUint(dst, uint64(k.Version), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, k.Range.Off, 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, k.Range.Count, 10)
	return dst
}

// String renders the DHT key.
func (k NodeKey) String() string {
	var buf [64]byte
	return string(k.appendTo(buf[:0]))
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

// Leaf is the payload of a leaf node: where one page's data lives.
type Leaf struct {
	Providers []cluster.NodeID // replica set, primary first
}

// Inner is the payload of an inner node: the identities of its two
// children (ranges are implied halves). Version 0 means hole (zeros).
// Children may live in a different blob's key space after cloning.
type Inner struct {
	LeftBlob     BlobID
	LeftVersion  Version
	RightBlob    BlobID
	RightVersion Version
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
	return span{lo: lo, hi: hi, capBefore: capBefore, capAfter: rec.CapAfter}
}

// creates reports whether the write created the node with range r.
func (s span) creates(r PageRange) bool {
	if r.intersects(s.lo, s.hi) && r.end() <= s.capAfter {
		return true
	}
	// Spine: capacity-growth prefixes [0, c), capBefore < c <= capAfter.
	return r.Off == 0 && r.Count > s.capBefore && r.Count <= s.capAfter
}

// covers reports whether the write's span contains r whole.
func (s span) covers(r PageRange) bool { return s.lo <= r.Off && r.end() <= s.hi }

// capBefore returns the tree capacity in effect before version v, given
// records contiguous from version 1 (before the first write there is
// no tree).
func capBefore(records []WriteRecord, v Version) int64 {
	if v < 2 || int(v-1) > len(records) {
		return 0
	}
	return records[v-2].CapAfter
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
	exact map[PageRange]int // created by touching part of the range, or as spine
	full  map[PageRange]int // span covers the range: created it and all beneath
	log   []creator         // chain heads and links are positions+1; 0 ends a chain
}

type creator struct {
	ver  Version
	prev int
}

func (ix *creatorIndex) list(m map[PageRange]int, r PageRange, v Version) {
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
	d.visit(PageRange{Count: rec.CapAfter}, 0)
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
func (b *blobState) creator(v Version, r PageRange) Version {
	if v == 0 {
		return 0
	}
	w := b.newest(b.index.exact[r], v)
	for a := r; a.Count <= b.records[v-1].CapAfter; a = (PageRange{Off: a.Off &^ (2*a.Count - 1), Count: 2 * a.Count}) {
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
func (d *descent) visit(r PageRange, inherited Version) {
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
	for _, half := range [2]PageRange{r.left(), r.right()} {
		if d.s.creates(half) {
			d.visit(half, inherited)
			continue
		}
		w := max(inherited, d.b.newest(ix.exact[half], d.v-1), d.b.newest(ix.full[half], d.v-1))
		ref := nodeRef{ver: w}
		if w != 0 {
			ref.blob = d.b.records[w-1].Blob
		}
		d.borrows = append(d.borrows, ref)
	}
}

// encodeInner / decodeNode wire formats: 1-byte tag then fixed fields.
const (
	tagInner = 1
	tagLeaf  = 2
)

func encodeInner(n Inner) []byte {
	buf := make([]byte, 33)
	buf[0] = tagInner
	binary.LittleEndian.PutUint64(buf[1:], uint64(n.LeftBlob))
	binary.LittleEndian.PutUint64(buf[9:], uint64(n.LeftVersion))
	binary.LittleEndian.PutUint64(buf[17:], uint64(n.RightBlob))
	binary.LittleEndian.PutUint64(buf[25:], uint64(n.RightVersion))
	return buf
}

func encodeLeaf(l Leaf) []byte {
	buf := make([]byte, 2+8*len(l.Providers))
	buf[0] = tagLeaf
	buf[1] = byte(len(l.Providers))
	for i, p := range l.Providers {
		binary.LittleEndian.PutUint64(buf[2+8*i:], uint64(p))
	}
	return buf
}

func decodeNode(b []byte) (inner Inner, leaf Leaf, isLeaf bool, err error) {
	if len(b) < 1 {
		return inner, leaf, false, fmt.Errorf("core: empty metadata node")
	}
	switch b[0] {
	case tagInner:
		if len(b) < 33 {
			return inner, leaf, false, fmt.Errorf("core: short inner node (%d bytes)", len(b))
		}
		inner.LeftBlob = BlobID(binary.LittleEndian.Uint64(b[1:]))
		inner.LeftVersion = Version(binary.LittleEndian.Uint64(b[9:]))
		inner.RightBlob = BlobID(binary.LittleEndian.Uint64(b[17:]))
		inner.RightVersion = Version(binary.LittleEndian.Uint64(b[25:]))
		return inner, leaf, false, nil
	case tagLeaf:
		if len(b) < 2 || len(b) < 2+8*int(b[1]) {
			return inner, leaf, false, fmt.Errorf("core: short leaf node (%d bytes)", len(b))
		}
		n := int(b[1])
		leaf.Providers = make([]cluster.NodeID, n)
		for i := 0; i < n; i++ {
			leaf.Providers[i] = cluster.NodeID(binary.LittleEndian.Uint64(b[2+8*i:]))
		}
		return inner, leaf, true, nil
	default:
		return inner, leaf, false, fmt.Errorf("core: unknown metadata node tag %d", b[0])
	}
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

// treeBuild builds the metadata trees of one call's versions into out,
// DHT key -> encoded value.
type treeBuild struct {
	out       map[string][]byte
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
	root := PageRange{Off: 0, Count: rec.CapAfter}
	if !b.s.creates(root) {
		// Cannot happen for a non-empty write: the root always
		// intersects the span or is a spine prefix.
		panic(fmt.Sprintf("core: root %v not created by version %d (span [%d,%d))", root, rec.Version, b.s.lo, b.s.hi))
	}
	b.node(root)
}

func (b *treeBuild) node(r PageRange) {
	key := NodeKey{Blob: b.rec.Blob, Version: b.rec.Version, Range: r}.String()
	if r.leaf() {
		b.out[key] = encodeLeaf(Leaf{Providers: b.placement.at(r.Off)})
		return
	}
	var inner Inner
	for _, half := range [2]PageRange{r.left(), r.right()} {
		child := nodeRef{blob: b.rec.Blob, ver: b.rec.Version}
		if b.s.creates(half) {
			b.node(half)
		} else {
			child, b.borrows = b.borrows[0], b.borrows[1:]
		}
		if half.Off == r.Off {
			inner.LeftBlob, inner.LeftVersion = child.blob, child.ver
		} else {
			inner.RightBlob, inner.RightVersion = child.blob, child.ver
		}
	}
	b.out[key] = encodeInner(inner)
}

// PageLoc describes where one page of a snapshot lives. Blob names the
// key space the page is stored under (the source blob, for inherited
// pages of a clone).
type PageLoc struct {
	Page      int64 // page index within the reading blob
	Blob      BlobID
	Version   Version
	Providers []cluster.NodeID // empty for holes (zero pages)
}

// Key returns the provider-store key for the page ("" for holes).
func (p PageLoc) Key() string {
	if len(p.Providers) == 0 {
		return ""
	}
	return pageKey(p.Blob, p.Version, p.Page)
}

// nodeFetcher abstracts the metadata DHT for the tree walk (batched
// get of encoded nodes by key).
type nodeFetcher interface {
	BatchGet(keys []string) (map[string][]byte, error)
}

// nodeGetter is the walk's optional fast path: a fetcher that can
// answer single-node lookups from a local cache with byte-rendered
// keys pays no key-string or result-map allocations on a hit. Misses
// fall back to BatchGet.
type nodeGetter interface {
	getNode(key []byte) ([]byte, bool)
}

// walkTree resolves the leaves covering pages [lo, hi) of version v of
// rootBlob (whose root tree node lives under rootMetaBlob after
// cloning), issuing one batched DHT get per tree level. Holes are
// reported with empty provider sets.
//
// aborted (optional) resolves whether a version was tombstoned. A tree
// may legitimately link a subtree of a version that later aborted: the
// linking writer's ticket named it as a borrow before the abort, and
// the aborted writer may have died before its own nodes reached the
// DHT. Such a missing subtree is a hole (the aborted write was never
// visible), not corruption — but only the version manager can tell the
// two apart, so without a probe a missing node stays a hard error.
func walkTree(rootMetaBlob BlobID, v Version, capPages int64, lo, hi int64, fetch nodeFetcher, aborted func(BlobID, Version) bool) ([]PageLoc, error) {
	if hi > capPages {
		hi = capPages
	}
	if lo >= hi {
		return nil, nil
	}
	type item struct {
		blob BlobID
		ver  Version
		r    PageRange
	}
	frontier := []item{{blob: rootMetaBlob, ver: v, r: PageRange{Off: 0, Count: capPages}}}
	getter, _ := fetch.(nodeGetter)
	// The frontier at most doubles per level and is bounded by the page
	// span; reuse the level buffers across the walk instead of
	// reallocating them per level. A hot walk (every node a getter hit)
	// renders keys into keyBuf and allocates nothing per node; only
	// misses materialize key strings for the BatchGet fallback.
	next := make([]item, 0, len(frontier))
	vals := make([][]byte, 0, hi-lo)
	var keyBuf []byte
	var missKeys []string
	var missIdx []int
	leaves := make([]PageLoc, 0, hi-lo)
	for len(frontier) > 0 {
		vals = vals[:0]
		missKeys = missKeys[:0]
		missIdx = missIdx[:0]
		for i, it := range frontier {
			nk := NodeKey{Blob: it.blob, Version: it.ver, Range: it.r}
			if getter != nil {
				keyBuf = nk.appendTo(keyBuf[:0])
				if raw, ok := getter.getNode(keyBuf); ok {
					vals = append(vals, raw)
					continue
				}
			}
			vals = append(vals, nil)
			missKeys = append(missKeys, nk.String())
			missIdx = append(missIdx, i)
		}
		if len(missKeys) > 0 {
			got, err := fetch.BatchGet(missKeys)
			if err != nil {
				return nil, err
			}
			for j, k := range missKeys {
				if raw, ok := got[k]; ok {
					vals[missIdx[j]] = raw
				}
			}
		}
		next = next[:0]
		for i, it := range frontier {
			raw := vals[i]
			if raw == nil {
				// Cold path: the node is genuinely absent from the DHT
				// (nodes are non-empty by encoding, so nil means missing).
				if aborted != nil && aborted(it.blob, it.ver) {
					appendHoles(&leaves, it.r, lo, hi)
					continue
				}
				return nil, fmt.Errorf("core: missing metadata node %s", NodeKey{Blob: it.blob, Version: it.ver, Range: it.r})
			}
			inner, leaf, isLeaf, err := decodeNode(raw)
			if err != nil {
				return nil, fmt.Errorf("core: node %s: %w", NodeKey{Blob: it.blob, Version: it.ver, Range: it.r}, err)
			}
			if isLeaf {
				leaves = append(leaves, PageLoc{Page: it.r.Off, Blob: it.blob, Version: it.ver, Providers: leaf.Providers})
				continue
			}
			for _, half := range [2]PageRange{it.r.left(), it.r.right()} {
				if !half.intersects(lo, hi) {
					continue
				}
				childBlob, childVer := inner.LeftBlob, inner.LeftVersion
				if half.Off != it.r.Off {
					childBlob, childVer = inner.RightBlob, inner.RightVersion
				}
				if childVer == 0 {
					appendHoles(&leaves, half, lo, hi)
					continue
				}
				next = append(next, item{blob: childBlob, ver: childVer, r: half})
			}
		}
		frontier, next = next, frontier
	}
	return leaves, nil
}

// appendHoles adds zero-page leaves for the portion of r within
// [lo, hi).
func appendHoles(leaves *[]PageLoc, r PageRange, lo, hi int64) {
	from, to := r.Off, r.end()
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
