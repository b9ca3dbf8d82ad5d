// Package indexfile defines the versioned on-disk format of prebuilt
// reference indexes and loads them back as ready seed tables — the "build
// once, load instantly" workflow Minimap2-class mappers ship as .mmi
// files. Where `index.Build` is a rebuild on every server start, a
// written index is mmapped and the seed table's three arrays (entries,
// directory and location runs; see package index) are served zero-copy
// straight out of the mapping, so built and loaded seed tables are the
// same index.Index. Platforms without mmap fall back to reading the file
// into RAM.
//
// # Format
//
// One file holds one index over one reference. All integers are stored in
// the writing machine's byte order; a byte-order mark in the header lets a
// foreign-endian reader reject the file cleanly instead of misreading it.
// Sections are 8-byte aligned so the mmap views satisfy Go's alignment
// rules.
//
//	header (72 bytes):
//	  [8]byte  magic "GASMIDX\x01"
//	  u32      version (currently 2)
//	  u32      byte-order mark 0x01020304
//	  u32      backend (1=hash, 2=minimizer; 3 is retired, see below)
//	  u32      k, u32 w (minimizer window; 0 for hash)
//	  u32      refName length in bytes
//	  u64      reference length in bases (below 2^31)
//	  u64      numEntries (distinct canonical k-mers)
//	  u64      numLocs (location-run words)
//	  u64      reference digest (CRC-64/ECMA over the encoded bases)
//	  u32      b (directory bits), u32 reserved
//	sections (each zero-padded to 8 bytes):
//	  refName  raw bytes
//	  ref      2-bit packed bases, 4 per byte
//	  entries []u64 · dir [2^b+1]u32 · locs []u32
//	trailer:
//	  u32      CRC-32C over everything before the trailer
//
// Load verifies the magic, version, byte order, structural bounds, the
// whole-file checksum and the reference digest, and bounds-checks every
// entry and location — a truncated, corrupted or wrong-version file is a
// clean error, never a panic in the seeding hot path. Version 1 files
// (forward keys, per-key offsets) fail with ErrVersion and must be
// rebuilt. Backend tag 3 held a suffix array in earlier releases; it
// stays reserved, and such a file is rejected as an unsupported version.
package indexfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math/bits"
	"os"
	"unsafe"

	"genasm/internal/index"
)

var (
	magic = [8]byte{'G', 'A', 'S', 'M', 'I', 'D', 'X', 1}

	// ErrFormat reports a file that is not a genasm index (bad magic).
	ErrFormat = errors.New("indexfile: not a genasm index file")
	// ErrVersion reports an index written by an incompatible format
	// version (or a foreign byte order).
	ErrVersion = errors.New("indexfile: unsupported index version")
	// ErrCorrupt reports a structurally damaged index file: truncation,
	// checksum mismatch, or out-of-bounds internal offsets.
	ErrCorrupt = errors.New("indexfile: corrupt index file")
)

// Version is the current format version.
const Version = 2

const (
	backendHash      = 1
	backendMinimizer = 2
	// backendRetiredSuffixArray tagged a suffix-array index, no longer
	// built or read. Never reuse the tag.
	backendRetiredSuffixArray = 3

	byteOrderMark = 0x01020304
	headerSize    = 72
	trailerSize   = 4
	// maxRefNameLen bounds the name section so a corrupt length cannot
	// drive a huge allocation.
	maxRefNameLen = 1 << 16
)

var (
	crcTable    = crc32.MakeTable(crc32.Castagnoli)
	digestTable = crc64.MakeTable(crc64.ECMA)
)

// RefDigest is the digest stored in the header and surfaced by Info: a
// CRC-64/ECMA over the encoded (2-bit codes) reference bases. Two files
// built from the same reference share it regardless of sampling.
func RefDigest(ref []byte) uint64 { return crc64.Checksum(ref, digestTable) }

// Write serializes the index (and the reference name recorded for SAM
// output) in the on-disk format. The writer is buffered internally;
// callers own closing/syncing the destination.
func Write(w io.Writer, idx *index.Index, refName string) error {
	if len(refName) > maxRefNameLen {
		return fmt.Errorf("indexfile: reference name %d bytes exceeds %d", len(refName), maxRefNameLen)
	}
	st := idx.Stats()
	ref := idx.Ref()
	entries, dir, locs := idx.Arrays()
	var backend uint32 = backendHash
	if st.MinimizerW > 0 {
		backend = backendMinimizer
	}

	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	ne.PutUint32(hdr[8:], Version)
	ne.PutUint32(hdr[12:], byteOrderMark)
	ne.PutUint32(hdr[16:], backend)
	ne.PutUint32(hdr[20:], uint32(st.K))
	ne.PutUint32(hdr[24:], uint32(st.MinimizerW))
	ne.PutUint32(hdr[28:], uint32(len(refName)))
	ne.PutUint64(hdr[32:], uint64(len(ref)))
	ne.PutUint64(hdr[40:], uint64(len(entries)))
	ne.PutUint64(hdr[48:], uint64(len(locs)))
	ne.PutUint64(hdr[56:], RefDigest(ref))
	ne.PutUint32(hdr[64:], uint32(bits.Len(uint(len(dir)-2))))

	crc := crc32.New(crcTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	emit := func(b []byte) error {
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if pad := (8 - len(b)%8) % 8; pad > 0 {
			var zeros [8]byte
			if _, err := bw.Write(zeros[:pad]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range [][]byte{hdr[:], []byte(refName), packRef(ref), sliceBytes(entries), sliceBytes(dir), sliceBytes(locs)} {
		if err := emit(b); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer: checksum of everything written so far, itself excluded.
	var tr [trailerSize]byte
	ne.PutUint32(tr[:], crc.Sum32())
	_, err := w.Write(tr[:])
	return err
}

// WriteFile serializes the index to path (0644, truncating any existing
// file) and syncs it to disk.
func WriteFile(path string, idx *index.Index, refName string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := Write(f, idx, refName); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Info describes a loaded index file; File.Index.Stats describes its table.
type Info struct {
	// RefName is the reference name recorded at build time.
	RefName string
	// RefDigest identifies the reference (CRC-64/ECMA of its encoded
	// bases), independent of sampling.
	RefDigest uint64
	// FileBytes is the on-disk size.
	FileBytes int64
	// Mapped reports whether the index is served from an mmap (true) or
	// was read into RAM (false).
	Mapped bool
}

// File is a loaded index: a ready seed table plus the file's metadata.
// Close releases the underlying mapping; the index (including its Ref and
// candidate lookups) must not be used afterwards.
type File struct {
	Index *index.Index
	Info  Info

	closer func() error
}

// Close unmaps the file. Safe to call twice.
func (f *File) Close() error {
	c := f.closer
	f.closer = nil
	if c != nil {
		return c()
	}
	return nil
}

// Load opens an index file, mmapping it when the platform supports it and
// falling back to an in-RAM copy otherwise. The big index arrays are
// served zero-copy from the mapping, so load time is dominated by the
// checksum pass and 2-bit reference unpacking, not by index construction.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if data, closer, err := mapFile(f, st.Size()); err == nil {
		f.Close() // the mapping outlives the descriptor
		file, derr := decode(data, closer, true)
		if derr != nil {
			closer()
			return nil, derr
		}
		return file, nil
	}
	f.Close()
	return LoadInMemory(path)
}

// LoadInMemory reads the whole file into RAM instead of mmapping — the
// portable fallback, also useful when the file lives on a filesystem
// whose mappings are undesirable (e.g. removable media).
func LoadInMemory(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data, nil, false)
}

// Decode builds a File from an in-memory image of an index file. The
// returned index aliases data, which must stay immutable and live for as
// long as the index is used.
func Decode(data []byte) (*File, error) {
	return decode(data, nil, false)
}

// ne is the native byte order, discovered once; files are written and read
// natively, with the header's byte-order mark rejecting foreign files.
var ne = nativeOrder()

func nativeOrder() binary.ByteOrder {
	var probe uint32 = 0x01020304
	if *(*byte)(unsafe.Pointer(&probe)) == 0x04 {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// Sniff checks whether r begins with a plausible index-file header
// (magic, supported version, native byte order) without decoding the
// payload. It lets directory scanners skip foreign or corrupt files
// cheaply before committing to a full Load.
func Sniff(r io.Reader) error {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrFormat, err)
	}
	if [8]byte(hdr[:8]) != magic {
		return ErrFormat
	}
	return checkVersion(hdr[:])
}

// checkVersion checks a header's version and byte-order fields.
func checkVersion(hdr []byte) error {
	if v := ne.Uint32(hdr[8:]); v != Version {
		return fmt.Errorf("%w: file version %d, this build reads %d; rebuild the index with `genasm index build`", ErrVersion, v, Version)
	}
	if bom := ne.Uint32(hdr[12:]); bom != byteOrderMark {
		return fmt.Errorf("%w: foreign byte order (mark %#x)", ErrVersion, bom)
	}
	return nil
}

func decode(data []byte, closer func() error, mapped bool) (*File, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, ErrFormat
	}
	if err := checkVersion(data); err != nil {
		return nil, err
	}
	payload := data[:len(data)-trailerSize]
	if got, want := crc32.Checksum(payload, crcTable), ne.Uint32(data[len(data)-trailerSize:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrCorrupt, want, got)
	}

	backend := ne.Uint32(data[16:])
	k := int(int32(ne.Uint32(data[20:])))
	w := int(int32(ne.Uint32(data[24:])))
	nameLen := int(ne.Uint32(data[28:]))
	refLen := ne.Uint64(data[32:])
	numEntries := ne.Uint64(data[40:])
	numLocs := ne.Uint64(data[48:])
	digest := ne.Uint64(data[56:])
	dirBits := ne.Uint32(data[64:])

	info := Info{RefDigest: digest, FileBytes: int64(len(data)), Mapped: mapped}
	switch backend {
	case backendHash:
		if w != 0 {
			return nil, fmt.Errorf("%w: hash backend with window %d", ErrCorrupt, w)
		}
	case backendMinimizer:
		if w < 1 {
			return nil, fmt.Errorf("%w: minimizer backend with window %d", ErrCorrupt, w)
		}
	case backendRetiredSuffixArray:
		return nil, fmt.Errorf("%w: suffix-array index files are no longer supported; rebuild with `genasm index build`", ErrVersion)
	default:
		return nil, fmt.Errorf("%w: unknown backend tag %d", ErrCorrupt, backend)
	}
	if k < 1 || k > index.MaxK {
		return nil, fmt.Errorf("%w: seed length %d out of range [1,%d]", ErrCorrupt, k, index.MaxK)
	}
	if nameLen > maxRefNameLen {
		return nil, fmt.Errorf("%w: reference name length %d", ErrCorrupt, nameLen)
	}
	if refLen > index.MaxRefLen || uint64(k) > refLen {
		return nil, fmt.Errorf("%w: reference length %d with k=%d", ErrCorrupt, refLen, k)
	}
	// Each seed is at most one entry and 1.5 location words, and the
	// directory has at most one slot per seed or 2^b < 2·refLen.
	if numEntries > refLen || numLocs > 2*refLen || dirBits > uint32(2*k) || uint64(1)<<dirBits > 2*refLen {
		return nil, fmt.Errorf("%w: %d entries / %d location words / %d directory bits over a %d-base reference",
			ErrCorrupt, numEntries, numLocs, dirBits, refLen)
	}

	// Walk the sections, each padded to 8 bytes, bounds-checking every
	// step: refName, packed reference, entries, directory, locations.
	var sec [5][]byte
	rest := payload[headerSize:]
	for i, n := range [5]int{nameLen, int(refLen+3) / 4, int(numEntries) * 8, (1<<dirBits + 1) * 4, int(numLocs) * 4} {
		if n > len(rest) {
			return nil, fmt.Errorf("%w: section %d (%d bytes) exceeds file", ErrCorrupt, i, n)
		}
		sec[i], rest = rest[:n:n], rest[min(n+(8-n%8)%8, len(rest)):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(rest))
	}
	info.RefName = string(sec[0])
	ref := unpackRef(sec[1], int(refLen))
	if d := RefDigest(ref); d != digest {
		return nil, fmt.Errorf("%w: reference digest mismatch (header %#x, computed %#x)", ErrCorrupt, digest, d)
	}
	idx, err := index.FromArrays(ref, k, w, viewSlice[uint64](sec[2]), viewSlice[uint32](sec[3]), viewSlice[uint32](sec[4]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &File{Index: idx, Info: info, closer: closer}, nil
}

// packRef packs dense 2-bit codes four to a byte, low bits first.
func packRef(ref []byte) []byte {
	out := make([]byte, (len(ref)+3)/4)
	for i, c := range ref {
		out[i/4] |= (c & 3) << uint(2*(i%4))
	}
	return out
}

// unpackRef expands packed bases back to one code per byte.
func unpackRef(packed []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = packed[i/4] >> uint(2*(i%4)) & 3
	}
	return out
}

// sliceBytes reinterprets a numeric slice as its raw native-order bytes.
func sliceBytes[T uint64 | uint32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// viewSlice reinterprets a byte section as a numeric slice without
// copying. Sections are 8-aligned within the file and mappings are
// page-aligned, so views are aligned in practice; a misaligned base
// (possible for the RAM fallback's backing array) falls back to a copy.
func viewSlice[T uint64 | uint32](b []byte) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	copy(sliceBytes(out), b)
	return out
}
