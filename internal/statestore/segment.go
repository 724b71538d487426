package statestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"

	"checkmate/internal/wire"
)

// This file implements the immutable on-disk sorted segment of the
// spillable backend: the binary format, the temp-fsync-rename writer, and
// the mmap'd cast-after-validate reader.
//
// Segment layout (little-endian, everything before the value region is
// 8-byte aligned):
//
//	offset  size  field
//	0       8     magic "\xC5KSEG1\x00\x00"
//	8       4     format version (1)
//	12      4     flags (bit 0 set: full layer — no tombstones, self-contained)
//	16      8     entry count
//	24      8     snapshot sequence number
//	32      8     value-region length in bytes
//	40      4     CRC32-C over bytes [0,40) and [44, 48+16·count)
//	44      4     reserved (zero)
//	48      16·n  index: {key u64, packed u64} entries, strictly ascending keys
//	48+16·n ...   value region: concatenated value bytes
//
// packed = offset<<24 | len<<1 | tombstone: a 40-bit offset into the value
// region, a 23-bit value length, and the tombstone bit. The checksum covers
// the whole header and index — every byte a reader trusts before the cast —
// while values are reached only through validated (offset, len) pairs and
// stay untouched until an operator actually reads them.
//
// The first magic byte is 0xC5, disjoint from the wire snapshot kinds
// (kindFull=1, kindDelta=2), so SnapshotKind and the restore path can
// dispatch on the first byte of a checkpoint blob.

const (
	segHeaderSize = 48
	segEntrySize  = 16
	segVersion    = 1
	segFlagFull   = 1

	// segMaxValueLen bounds a single value in the spillable backend: the
	// packed index entry keeps 23 bits for the length (8 MiB - 1).
	segMaxValueLen = 1<<23 - 1
	// segMaxValueOff bounds the value region (40-bit offsets: 1 TiB).
	segMaxValueOff = 1<<40 - 1
)

var segMagic = [8]byte{0xC5, 'K', 'S', 'E', 'G', '1', 0, 0}

var segCRCTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian gates the zero-copy index cast: the on-disk format is
// little-endian, so on a big-endian host the index is decoded into a heap
// copy instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// segEntry mirrors one 16-byte index entry. Field order matches the file
// layout so a validated little-endian mapping can be viewed in place.
type segEntry struct {
	key    uint64
	packed uint64
}

func packEntry(off uint64, n int, tomb bool) uint64 {
	p := off<<24 | uint64(n)<<1
	if tomb {
		p |= 1
	}
	return p
}

func (e segEntry) valueOff() uint64 { return e.packed >> 24 }
func (e segEntry) valueLen() int    { return int((e.packed >> 1) & segMaxValueLen) }
func (e segEntry) tombstone() bool  { return e.packed&1 != 0 }

// segHeader is the decoded fixed header of a segment.
type segHeader struct {
	flags   uint32
	count   int
	seq     uint64
	dataLen int64
}

// segment is one immutable sorted layer of a spilling store, usually an
// mmap'd file. Lookups binary-search the index view; values are returned
// as zero-copy subslices of the mapping.
type segment struct {
	path   string
	data   []byte // the whole file image (mapping or aligned heap copy)
	mapped bool   // true when data must be munmap'd on release
	index  []segEntry
	values []byte
	full   bool
	seq    uint64
	liveN  int   // non-tombstone entries
	liveB  int64 // summed non-tombstone value bytes
	// refs counts owners: the store's layer-list membership plus every
	// capture pinning the segment's values. It is atomic because captures
	// release on the materializing goroutine. The last release unmaps and
	// deletes the file.
	refs atomic.Int32
}

// validateSegment checks everything the reader will trust about a segment
// image — magic, version, geometry, the header+index checksum, ascending
// keys and in-bounds value ranges — and returns the decoded header plus
// live-entry stats. It reads b only through bounds-checked scalar decodes,
// so it is safe on arbitrary (even hostile) input.
func validateSegment(b []byte) (h segHeader, liveN int, liveB int64, err error) {
	if len(b) < segHeaderSize {
		return h, 0, 0, fmt.Errorf("statestore: segment too short (%d bytes)", len(b))
	}
	if *(*[8]byte)(b[:8]) != segMagic {
		return h, 0, 0, fmt.Errorf("statestore: bad segment magic %x", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != segVersion {
		return h, 0, 0, fmt.Errorf("statestore: unsupported segment version %d", v)
	}
	h.flags = binary.LittleEndian.Uint32(b[12:])
	count := binary.LittleEndian.Uint64(b[16:])
	h.seq = binary.LittleEndian.Uint64(b[24:])
	h.dataLen = int64(binary.LittleEndian.Uint64(b[32:]))
	if count > uint64(len(b)) || segHeaderSize+int64(count)*segEntrySize > int64(len(b)) {
		return h, 0, 0, fmt.Errorf("statestore: segment count %d exceeds file size %d", count, len(b))
	}
	h.count = int(count)
	indexEnd := int64(segHeaderSize) + int64(h.count)*segEntrySize
	if h.dataLen < 0 || indexEnd+h.dataLen != int64(len(b)) {
		return h, 0, 0, fmt.Errorf("statestore: segment data length %d inconsistent with file size %d", h.dataLen, len(b))
	}
	crc := crc32.Update(0, segCRCTable, b[:40])
	crc = crc32.Update(crc, segCRCTable, b[44:indexEnd])
	if stored := binary.LittleEndian.Uint32(b[40:]); stored != crc {
		return h, 0, 0, fmt.Errorf("statestore: segment checksum mismatch (stored %08x, computed %08x)", stored, crc)
	}
	prev := uint64(0)
	for i := 0; i < h.count; i++ {
		off := segHeaderSize + i*segEntrySize
		key := binary.LittleEndian.Uint64(b[off:])
		packed := binary.LittleEndian.Uint64(b[off+8:])
		if i > 0 && key <= prev {
			return h, 0, 0, fmt.Errorf("statestore: segment keys not strictly ascending at entry %d", i)
		}
		prev = key
		e := segEntry{key: key, packed: packed}
		if end := int64(e.valueOff()) + int64(e.valueLen()); end > h.dataLen {
			return h, 0, 0, fmt.Errorf("statestore: segment entry %d value range [%d,%d) exceeds data length %d", i, e.valueOff(), end, h.dataLen)
		}
		if !e.tombstone() {
			liveN++
			liveB += int64(e.valueLen())
		}
	}
	return h, liveN, liveB, nil
}

// openSegment maps and validates a segment file. The returned segment
// holds one reference (the caller's).
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mmapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("statestore: mmap %s: %w", path, err)
	}
	g, err := newSegment(path, data, mapped)
	if err != nil {
		if mapped {
			munmapBytes(data)
		}
		return nil, err
	}
	return g, nil
}

// newSegment validates a segment image and builds the index view. On a
// little-endian host the index is the mapping itself, cast after
// validation — zero copies; otherwise it is decoded into a heap slice.
func newSegment(path string, data []byte, mapped bool) (*segment, error) {
	h, liveN, liveB, err := validateSegment(data)
	if err != nil {
		return nil, fmt.Errorf("statestore: open segment %s: %w", filepath.Base(path), err)
	}
	g := &segment{
		path:   path,
		data:   data,
		mapped: mapped,
		full:   h.flags&segFlagFull != 0,
		seq:    h.seq,
		liveN:  liveN,
		liveB:  liveB,
	}
	indexEnd := segHeaderSize + h.count*segEntrySize
	g.values = data[indexEnd:len(data):len(data)]
	if h.count > 0 {
		raw := data[segHeaderSize:indexEnd]
		if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
			g.index = unsafe.Slice((*segEntry)(unsafe.Pointer(&raw[0])), h.count)
		} else {
			idx := make([]segEntry, h.count)
			for i := range idx {
				idx[i].key = binary.LittleEndian.Uint64(raw[i*segEntrySize:])
				idx[i].packed = binary.LittleEndian.Uint64(raw[i*segEntrySize+8:])
			}
			g.index = idx
		}
	}
	g.refs.Store(1)
	return g, nil
}

func (g *segment) acquire() { g.refs.Add(1) }

// release drops one reference; the last one unmaps the image and removes
// the file. Safe to call from any goroutine (captures release off-thread).
func (g *segment) release() {
	if g.refs.Add(-1) != 0 {
		return
	}
	data := g.data
	g.data, g.index, g.values = nil, nil, nil
	if g.mapped {
		munmapBytes(data)
	}
	if g.path != "" {
		_ = os.Remove(g.path)
	}
}

// get binary-searches the index. The returned value is a zero-copy
// subslice of the mapping (capped, so appends cannot spill into
// neighboring values); callers must treat it as read-only.
func (g *segment) get(key uint64) (v []byte, tombstone, ok bool) {
	lo, hi := 0, len(g.index)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.index[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(g.index) || g.index[lo].key != key {
		return nil, false, false
	}
	e := g.index[lo]
	if e.tombstone() {
		return nil, true, true
	}
	return g.valueOf(e), false, true
}

func (g *segment) valueOf(e segEntry) []byte {
	off, n := e.valueOff(), uint64(e.valueLen())
	return g.values[off : off+n : off+n]
}

// contains reports whether addr points into the segment's image — the
// guard that keeps the poison scribbler away from read-only mapped pages.
func (g *segment) contains(addr uintptr) bool {
	if len(g.data) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(&g.data[0]))
	return addr >= base && addr < base+uintptr(len(g.data))
}

// segSize reports the on-disk (and mapped) size of the segment.
func (g *segment) segSize() int64 { return int64(len(g.data)) }

// segIter walks a segment's entries in ascending key order.
type segIter struct {
	g *segment
	i int
}

func (it *segIter) next() (key uint64, v []byte, tombstone, ok bool) {
	if it.i >= len(it.g.index) {
		return 0, nil, false, false
	}
	e := it.g.index[it.i]
	it.i++
	if e.tombstone() {
		return e.key, nil, true, true
	}
	return e.key, it.g.valueOf(e), false, true
}

// segEmitter yields segment entries in ascending key order. Writers call
// it multiple times (index pass, then value pass), so it must be
// re-iterable and deterministic.
type segEmitter func(yield func(key uint64, v []byte, tombstone bool) bool)

// writeSegmentFile streams a segment to dir/name via the objstore disk
// idiom — temp file, fsync, rename, directory sync — so a crash never
// leaves a half-written segment under its final name. count and dataLen
// must match what emit yields; emit runs twice.
func writeSegmentFile(dir, name string, flags uint32, seq uint64, count int, dataLen int64, emit segEmitter) (path string, err error) {
	if int64(count)*segEntrySize > int64(1)<<56 || dataLen > segMaxValueOff {
		return "", fmt.Errorf("statestore: segment too large (%d entries, %d value bytes)", count, dataLen)
	}
	f, err := os.CreateTemp(dir, "seg-*.tmp")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(count))
	binary.LittleEndian.PutUint64(hdr[24:], seq)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(dataLen))
	// CRC field stays zero for now; patched after the index is streamed.

	w := bufio.NewWriterSize(f, 1<<16)
	if _, err = w.Write(hdr[:]); err != nil {
		return "", err
	}
	crc := crc32.Update(0, segCRCTable, hdr[:40])
	crc = crc32.Update(crc, segCRCTable, hdr[44:48])

	// Index pass: entries with cumulative value offsets, CRC folded in as
	// they stream out.
	var (
		ent     [segEntrySize]byte
		off     int64
		n       int
		emitErr error
	)
	emit(func(key uint64, v []byte, tombstone bool) bool {
		if len(v) > segMaxValueLen {
			emitErr = fmt.Errorf("statestore: value of %d bytes exceeds the spillable backend's %d-byte limit", len(v), segMaxValueLen)
			return false
		}
		binary.LittleEndian.PutUint64(ent[:], key)
		binary.LittleEndian.PutUint64(ent[8:], packEntry(uint64(off), len(v), tombstone))
		if _, werr := w.Write(ent[:]); werr != nil {
			emitErr = werr
			return false
		}
		crc = crc32.Update(crc, segCRCTable, ent[:])
		off += int64(len(v))
		n++
		return true
	})
	if emitErr != nil {
		return "", emitErr
	}
	if n != count || off != dataLen {
		return "", fmt.Errorf("statestore: segment emitter yielded %d entries/%d bytes, expected %d/%d", n, off, count, dataLen)
	}

	// Value pass.
	emit(func(_ uint64, v []byte, _ bool) bool {
		if _, werr := w.Write(v); werr != nil {
			emitErr = werr
			return false
		}
		return true
	})
	if emitErr != nil {
		return "", emitErr
	}
	if err = w.Flush(); err != nil {
		return "", err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	if _, err = f.WriteAt(crcb[:], 40); err != nil {
		return "", err
	}
	if err = f.Sync(); err != nil {
		return "", err
	}
	if err = f.Close(); err != nil {
		return "", err
	}
	path = filepath.Join(dir, name)
	if err = os.Rename(tmp, path); err != nil {
		return "", err
	}
	if err = syncSegDir(dir); err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// syncSegDir makes a rename durable by fsyncing the directory holding it.
func syncSegDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("statestore: sync segment dir: %w", err)
	}
	return nil
}

// appendSegmentTo appends a segment image — byte-identical to a segment
// file's contents — to enc. Capture materialization uses it so a spill-mode
// checkpoint blob *is* a segment: restore writes the blob to disk and maps
// it, no per-entry decode. emit runs twice, exactly as in writeSegmentFile.
func appendSegmentTo(enc *wire.Encoder, flags uint32, seq uint64, count int, dataLen int64, emit segEmitter) {
	start := enc.Len()
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(count))
	binary.LittleEndian.PutUint64(hdr[24:], seq)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(dataLen))
	enc.Raw(hdr[:])

	var (
		ent [segEntrySize]byte
		off int64
		n   int
	)
	emit(func(key uint64, v []byte, tombstone bool) bool {
		if len(v) > segMaxValueLen {
			panic(fmt.Sprintf("statestore: value of %d bytes exceeds the spillable backend's %d-byte limit", len(v), segMaxValueLen))
		}
		binary.LittleEndian.PutUint64(ent[:], key)
		binary.LittleEndian.PutUint64(ent[8:], packEntry(uint64(off), len(v), tombstone))
		enc.Raw(ent[:])
		off += int64(len(v))
		n++
		return true
	})
	if n != count || off != dataLen {
		panic(fmt.Sprintf("statestore: segment emitter yielded %d entries/%d bytes, expected %d/%d", n, off, count, dataLen))
	}
	emit(func(_ uint64, v []byte, _ bool) bool {
		enc.Raw(v)
		return true
	})

	// Patch the checksum over the finished header and index in place.
	b := enc.Bytes()[start:]
	indexEnd := segHeaderSize + count*segEntrySize
	crc := crc32.Update(0, segCRCTable, b[:40])
	crc = crc32.Update(crc, segCRCTable, b[44:indexEnd])
	binary.LittleEndian.PutUint32(b[40:], crc)
}

// isSegmentBlob reports whether blob looks like a segment image (as
// opposed to a wire-format snapshot). Dispatch only — validation happens
// when the blob is actually opened.
func isSegmentBlob(blob []byte) bool {
	return len(blob) >= 8 && *(*[8]byte)(blob[:8]) == segMagic
}

// segmentBlobHeader decodes and sanity-checks just the header of a
// segment-format blob (for SnapshotKind-style dispatch without paying the
// full index validation).
func segmentBlobHeader(blob []byte) (full bool, seq uint64, err error) {
	if len(blob) < segHeaderSize {
		return false, 0, fmt.Errorf("statestore: segment blob too short (%d bytes)", len(blob))
	}
	if v := binary.LittleEndian.Uint32(blob[8:]); v != segVersion {
		return false, 0, fmt.Errorf("statestore: unsupported segment version %d", v)
	}
	flags := binary.LittleEndian.Uint32(blob[12:])
	return flags&segFlagFull != 0, binary.LittleEndian.Uint64(blob[24:]), nil
}

// forEachSegmentEntry validates a segment image and calls fn for every
// entry. This is the decode path for a *plain* store restoring blobs a
// spill-mode run produced: values are passed as subslices of blob and must
// be copied by fn if retained.
func forEachSegmentEntry(blob []byte, fn func(key uint64, v []byte, tombstone bool) error) (segHeader, error) {
	h, _, _, err := validateSegment(blob)
	if err != nil {
		return h, err
	}
	indexEnd := segHeaderSize + h.count*segEntrySize
	values := blob[indexEnd:]
	for i := 0; i < h.count; i++ {
		off := segHeaderSize + i*segEntrySize
		e := segEntry{
			key:    binary.LittleEndian.Uint64(blob[off:]),
			packed: binary.LittleEndian.Uint64(blob[off+8:]),
		}
		var v []byte
		if !e.tombstone() {
			v = values[e.valueOff() : int64(e.valueOff())+int64(e.valueLen())]
		}
		if err := fn(e.key, v, e.tombstone()); err != nil {
			return h, err
		}
	}
	return h, nil
}
