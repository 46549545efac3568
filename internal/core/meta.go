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
// key version is the latest w <= v that created a node with exactly
// that range, computable purely from the write history the version
// manager hands out with each ticket. This is what lets concurrent
// writers build their metadata in parallel without reading each
// other's trees. A child range never touched by any version is a hole
// and reads as zeros.
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
	Offset    int64  // byte offset of the write
	Length    int64  // byte length of the write
	SizeAfter int64  // blob size after this write
	CapAfter  int64  // tree capacity (pages) after this write
	Aborted   bool   // version tombstoned by the version manager
	Tenant    string // admission tenant that issued the write ("" = untenanted)
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

// creates reports whether the write described by rec (with the capacity
// before it, capBefore) created the node with the given range.
func creates(rec WriteRecord, capBefore int64, r PageRange, pageSize int64) bool {
	lo, hi := pageSpan(rec.Offset, rec.Length, pageSize)
	if r.intersects(lo, hi) && r.end() <= rec.CapAfter {
		return true
	}
	// Spine: capacity-growth prefixes [0, c), capBefore < c <= capAfter.
	return r.Off == 0 && r.Count > capBefore && r.Count <= rec.CapAfter
}

// history provides ordered write records for borrow computation.
// Records must be sorted by version ascending and contiguous from
// version 1; index i holds version i+1.
type history []WriteRecord

func (h history) record(v Version) (WriteRecord, bool) {
	i := int(v) - 1
	if i < 0 || i >= len(h) {
		return WriteRecord{}, false
	}
	return h[i], true
}

// capBefore returns the capacity in effect before version v.
func (h history) capBefore(v Version) int64 {
	if rec, ok := h.record(v - 1); ok {
		return rec.CapAfter
	}
	return 0 // before the first write there is no tree
}

// borrow returns the identity (blob, version) of the newest node with
// exactly range r among versions <= v, or (0, 0) if no version ever
// created it (hole). The blob may differ from the reader's after a
// clone. Aborted versions are skipped: their writer may have died
// before the metadata reached the DHT, so linking their nodes would
// leave a dangling reference; the range falls back to the newest
// surviving creator, or reads as a hole.
func (h history) borrow(v Version, r PageRange, pageSize int64) (BlobID, Version) {
	for w := v; w >= 1; w-- {
		rec, ok := h.record(w)
		if !ok {
			continue
		}
		if creates(rec, h.capBefore(w), r, pageSize) {
			if rec.Aborted {
				continue
			}
			return rec.Blob, w
		}
	}
	return 0, 0
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

// buildNodes adds every metadata node a write must publish to out, as
// DHT key -> encoded value (a batch builds all its versions' trees into
// one map). rec is the write's own record (its Blob names the key space
// the new nodes live in), h the history of all versions < rec.Version
// (h may also contain rec itself; only earlier entries are consulted),
// and placement maps each written page index to its replica set.
func buildNodes(out map[string][]byte, rec WriteRecord, h history, pageSize int64, placement pagePlacement) {
	v := rec.Version
	blob := rec.Blob
	capBefore := h.capBefore(v)

	var build func(r PageRange)
	build = func(r PageRange) {
		key := NodeKey{Blob: blob, Version: v, Range: r}.String()
		if r.leaf() {
			out[key] = encodeLeaf(Leaf{Providers: placement.at(r.Off)})
			return
		}
		var inner Inner
		for _, half := range [2]PageRange{r.left(), r.right()} {
			var childBlob BlobID
			var childVer Version
			if creates(rec, capBefore, half, pageSize) {
				childBlob, childVer = blob, v
				build(half)
			} else {
				childBlob, childVer = h.borrow(v-1, half, pageSize)
			}
			if half.Off == r.Off {
				inner.LeftBlob, inner.LeftVersion = childBlob, childVer
			} else {
				inner.RightBlob, inner.RightVersion = childBlob, childVer
			}
		}
		out[key] = encodeInner(inner)
	}

	root := PageRange{Off: 0, Count: rec.CapAfter}
	if !creates(rec, capBefore, root, pageSize) {
		// Cannot happen for a non-empty write: the root always
		// intersects the span or is a spine prefix.
		lo, hi := pageSpan(rec.Offset, rec.Length, pageSize)
		panic(fmt.Sprintf("core: root %v not created by version %d (span %d+%d)", root, v, lo, hi))
	}
	build(root)
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
// linking writer assembled its nodes from a history snapshot that
// predates the abort, and the aborted writer may have died before its
// own nodes reached the DHT. Such a missing subtree is a hole (the
// aborted write was never visible), not corruption — but only the
// version manager can tell the two apart, so without a probe a missing
// node stays a hard error.
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
