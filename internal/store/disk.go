package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The disk backend is a segmented write-ahead page log: a sequence of
// segment files, each a stream of length-prefixed, checksummed records:
//
//	[1B kind][4B keyLen][key][8B size][4B dataLen][data][4B crc32]
//
// kind: 1 = put (real), 2 = tombstone, 3 = put (synthetic, no data).
// The crc covers everything before it in the record. Recovery replays
// segments in order; the last record for a key wins. A torn final
// record (crash mid-append) is truncated away.
//
// Open appends to the newest existing segment while it has room —
// rolling a fresh segment on every open would leak an empty seg-*.wal
// per restart — and removes empty segments left behind by older
// layouts.

const (
	recPut       = 1
	recTombstone = 2
	recSynthetic = 3

	// recFraming is a record's length besides its key and payload: kind,
	// key length, size, payload length and crc.
	recFraming = 21

	segMaxBytes = 64 << 20
)

var errCorrupt = errors.New("store: corrupt log record")

// atErr maps a mid-record io.EOF from ReadAt to ErrUnexpectedEOF so the
// replay loop treats it as a torn tail rather than a clean end.
func atErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

type diskRec struct {
	seg       int
	off       int64 // offset of the data payload within the segment
	dataLen   int64
	size      int64
	synthetic bool
}

type diskBackend struct {
	dir      string
	index    map[string]diskRec
	segs     []int // sorted segment ids
	active   *os.File
	activeID int
	activeSz int64
	// readers holds Get's read handle per segment, opened on first use
	// and kept until Compact or Close: one descriptor per segment read
	// since then, so a 1 GiB log read end to end holds 16 of them, on
	// every provider in the process.
	readers map[int]*os.File
	head    []byte // a record's header, then its trailer: one buffer for every record
}

func segName(id int) string { return fmt.Sprintf("seg-%06d.wal", id) }

func openDisk(dir string) (*diskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &diskBackend{dir: dir, index: make(map[string]diskRec), readers: make(map[int]*os.File)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range entries {
		var id int
		if n, _ := fmt.Sscanf(de.Name(), "seg-%06d.wal", &id); n == 1 && strings.HasSuffix(de.Name(), ".wal") {
			w.segs = append(w.segs, id)
		}
	}
	sort.Ints(w.segs)
	for _, id := range w.segs {
		if err := w.replay(id); err != nil {
			return nil, err
		}
	}
	// GC empty segments (all but the newest, which is reused below):
	// older layouts rolled a fresh segment per open, so restart loops
	// left a trail of zero-byte files.
	live := w.segs[:0]
	for i, id := range w.segs {
		path := filepath.Join(w.dir, segName(id))
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if fi.Size() == 0 && i < len(w.segs)-1 {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		live = append(live, id)
	}
	w.segs = live
	// Reuse the newest segment while it has room instead of rolling an
	// empty one per open.
	if n := len(w.segs); n > 0 {
		tail := w.segs[n-1]
		fi, err := os.Stat(filepath.Join(w.dir, segName(tail)))
		if err != nil {
			return nil, err
		}
		if fi.Size() < segMaxBytes {
			f, err := os.OpenFile(filepath.Join(w.dir, segName(tail)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			w.active = f
			w.activeID = tail
			w.activeSz = fi.Size()
			return w, nil
		}
		if err := w.roll(tail + 1); err != nil {
			return nil, err
		}
		return w, nil
	}
	if err := w.roll(1); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *diskBackend) roll(id int) error {
	if w.active != nil {
		if err := w.active.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(id)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.active = f
	w.activeID = id
	w.activeSz = 0
	w.segs = append(w.segs, id)
	return nil
}

// replay scans one segment, updating the index. A torn tail is
// truncated.
func (w *diskBackend) replay(id int) error {
	path := filepath.Join(w.dir, segName(id))
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var off int64
	for {
		rec, key, next, err := readRecord(f, off)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if errors.Is(err, errCorrupt) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn write at the tail: truncate and stop.
			return os.Truncate(path, off)
		}
		if err != nil {
			return err
		}
		rec.seg = id
		if rec.size < 0 { // tombstone
			delete(w.index, key)
		} else {
			w.index[key] = rec
		}
		off = next
	}
}

// readRecord parses one record at off; returns the record, key, and the
// offset of the next record.
func readRecord(f *os.File, off int64) (diskRec, string, int64, error) {
	// ReadAt reports io.EOF on both a clean end (zero bytes at off) and
	// a partial record at the tail; only n distinguishes them, and only
	// the first is a healthy stop.
	var hdr [5]byte
	if n, err := f.ReadAt(hdr[:], off); err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			return diskRec{}, "", 0, io.EOF
		}
		return diskRec{}, "", 0, atErr(err)
	}
	kind := hdr[0]
	keyLen := binary.LittleEndian.Uint32(hdr[1:5])
	if kind < recPut || kind > recSynthetic || keyLen > 1<<20 {
		return diskRec{}, "", 0, errCorrupt
	}
	buf := make([]byte, int(keyLen)+12)
	if _, err := f.ReadAt(buf, off+5); err != nil {
		return diskRec{}, "", 0, atErr(err)
	}
	key := string(buf[:keyLen])
	size := int64(binary.LittleEndian.Uint64(buf[keyLen : keyLen+8]))
	dataLen := int64(binary.LittleEndian.Uint32(buf[keyLen+8 : keyLen+12]))
	if dataLen > 1<<31 {
		return diskRec{}, "", 0, errCorrupt
	}
	dataOff := off + 5 + int64(keyLen) + 12
	crcBuf := make([]byte, 4)
	if _, err := f.ReadAt(crcBuf, dataOff+dataLen); err != nil {
		return diskRec{}, "", 0, atErr(err)
	}
	h := crc32.NewIEEE()
	h.Write(hdr[:])
	h.Write(buf)
	if dataLen > 0 {
		if _, err := io.Copy(h, io.NewSectionReader(f, dataOff, dataLen)); err != nil {
			return diskRec{}, "", 0, err
		}
	}
	if h.Sum32() != binary.LittleEndian.Uint32(crcBuf) {
		return diskRec{}, "", 0, errCorrupt
	}
	rec := diskRec{off: dataOff, dataLen: dataLen, size: size, synthetic: kind == recSynthetic}
	if kind == recTombstone {
		rec.size = -1
	}
	return rec, key, dataOff + dataLen + 4, nil
}

// appendRecord logs one record at the end of the active segment and
// returns the offset of its payload. The header and the CRC trailer are
// built in one reused buffer (a Backend is used by one goroutine at a
// time) and the payload is written from the caller's slice, so a record
// costs no allocation and no copy; the CRC runs over header and payload
// in turn. A record that fails part way is cut off again, so the next
// one starts where replay expects it.
func (w *diskBackend) appendRecord(kind byte, key string, size int64, data []byte) (int64, error) {
	h := append(w.head[:0], kind)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(key)))
	h = append(h, key...)
	h = binary.LittleEndian.AppendUint64(h, uint64(size))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(data)))
	crc := crc32.Update(crc32.ChecksumIEEE(h), crc32.IEEETable, data)
	w.head = binary.LittleEndian.AppendUint32(h, crc)
	var err error
	if len(data) == 0 {
		_, err = w.active.Write(w.head)
	} else if _, err = w.active.Write(h); err == nil {
		if _, err = w.active.Write(data); err == nil {
			_, err = w.active.Write(w.head[len(h):])
		}
	}
	if err != nil {
		_ = w.active.Truncate(w.activeSz) // best effort: replay cuts a torn tail anyway
		return 0, err
	}
	dataOff := w.activeSz + int64(len(h))
	w.activeSz += int64(len(w.head) + len(data))
	return dataOff, nil
}

func (w *diskBackend) Spec() string { return "disk:" + w.dir }

func (w *diskBackend) Put(key string, data []byte, size int64, synthetic bool) error {
	if w.active == nil {
		return ErrClosed
	}
	kind := byte(recPut)
	if synthetic {
		kind = recSynthetic
		data = nil
	}
	if w.activeSz > 0 && w.activeSz+int64(len(key)+len(data))+recFraming > segMaxBytes {
		if err := w.roll(w.activeID + 1); err != nil {
			return err
		}
	}
	dataOff, err := w.appendRecord(kind, key, size, data)
	if err != nil {
		return err
	}
	w.index[key] = diskRec{seg: w.activeID, off: dataOff, dataLen: int64(len(data)), size: size, synthetic: synthetic}
	return nil
}

func (w *diskBackend) Delete(key string) error {
	if w.active == nil {
		return ErrClosed
	}
	if _, ok := w.index[key]; !ok {
		return nil // nothing logged, nothing to tombstone
	}
	if _, err := w.appendRecord(recTombstone, key, 0, nil); err != nil {
		return err
	}
	delete(w.index, key)
	return nil
}

// Get fetches the payload bytes of the latest record for key.
func (w *diskBackend) Get(key string) ([]byte, error) {
	if w.active == nil {
		return nil, ErrClosed
	}
	rec, ok := w.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q (log)", ErrNotFound, key)
	}
	if rec.synthetic {
		return nil, nil
	}
	f := w.readers[rec.seg]
	if f == nil {
		var err error
		if f, err = os.Open(filepath.Join(w.dir, segName(rec.seg))); err != nil {
			return nil, err
		}
		w.readers[rec.seg] = f
	}
	buf := make([]byte, rec.dataLen)
	if _, err := f.ReadAt(buf, rec.off); err != nil {
		return nil, err
	}
	return buf, nil
}

// closeReaders closes Get's read handles: before Compact deletes the
// segments they read, and in Close.
func (w *diskBackend) closeReaders() error {
	var err error
	for seg, f := range w.readers {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		delete(w.readers, seg)
	}
	return err
}

func (w *diskBackend) Stat(key string) (Meta, bool) {
	rec, ok := w.index[key]
	if !ok {
		return Meta{}, false
	}
	return Meta{Size: rec.size, Synthetic: rec.synthetic}, true
}

func (w *diskBackend) Len() int { return len(w.index) }

func (w *diskBackend) Walk(fn func(key string, m Meta) bool) {
	for k, rec := range w.index {
		if !fn(k, Meta{Size: rec.size, Synthetic: rec.synthetic}) {
			return
		}
	}
}

// Sync flushes the active segment to stable storage.
func (w *diskBackend) Sync() error {
	if w.active == nil {
		return ErrClosed
	}
	return w.active.Sync()
}

// Compact rewrites live records into fresh segments and deletes the old
// ones.
func (w *diskBackend) Compact() error {
	if w.active == nil {
		return ErrClosed
	}
	oldSegs := append([]int(nil), w.segs...)
	keys := make([]string, 0, len(w.index))
	for k := range w.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Load payloads before switching segments.
	type live struct {
		key       string
		data      []byte
		size      int64
		synthetic bool
	}
	records := make([]live, 0, len(keys))
	for _, k := range keys {
		rec := w.index[k]
		data, err := w.Get(k)
		if err != nil {
			return err
		}
		records = append(records, live{key: k, data: data, size: rec.size, synthetic: rec.synthetic})
	}
	next := w.activeID + 1
	w.segs = nil
	if err := w.roll(next); err != nil {
		return err
	}
	w.index = make(map[string]diskRec, len(records))
	for _, r := range records {
		if err := w.Put(r.key, r.data, r.size, r.synthetic); err != nil {
			return err
		}
	}
	if err := w.Sync(); err != nil {
		return err
	}
	if err := w.closeReaders(); err != nil {
		return err
	}
	for _, id := range oldSegs {
		if err := os.Remove(filepath.Join(w.dir, segName(id))); err != nil {
			return err
		}
	}
	return nil
}

func (w *diskBackend) Close() error {
	if w.active == nil {
		return nil
	}
	err := w.active.Sync()
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	if cerr := w.closeReaders(); err == nil {
		err = cerr
	}
	w.active = nil
	return err
}
