// Package index implements candidate generation for read mapping
// (Figure 1, steps 0 and 1, and the "hash-table based indexing" use case
// of Section 11): a k-mer seed table over the reference (all fixed-length
// seeds keyed to their locations), optionally sampled with window
// minimizers as Minimap2-class mappers do to shrink the index.
//
// Both forms are one seed table, Index: sorted arrays of distinct packed
// k-mers, per-key offsets and locations, which are exactly the sections an
// index file stores, plus a directory over the keys' top bits derived from
// them. A built index and one loaded zero-copy from a file mapping are
// therefore the same type with the same lookup; loading derives only the
// directory (FromArrays).
package index

import (
	"fmt"
	"math/bits"
	"slices"
)

// Index is the seed table, every k-mer or window minimizers.
// keys holds the distinct packed k-mers ascending, offs[i]:offs[i+1]
// brackets key i's locations in locs (ascending), and dir[s]:dir[s+1]
// brackets the keys whose top bits equal s. The directory has at most one
// slot per key, so a lookup is one directory probe plus a binary search
// over a handful of keys.
type Index struct {
	k     int
	w     int // minimizer window; 0 when every k-mer is indexed
	ref   []byte
	keys  []uint64
	offs  []uint32
	locs  []int32
	dir   []uint32
	shift uint // key >> shift is the key's directory slot
}

// Build indexes every k-mer of the encoded reference.
func Build(ref []byte, k int) (*Index, error) {
	return build(ref, k, 0)
}

// BuildMinimizer indexes only window minimizers: for every window of w
// consecutive k-mers, the lexicographically smallest (after hashing) is
// kept. This is Minimap2's sampling scheme, shrinking the index roughly
// 2/(w+1)-fold while preserving mapability. w=1 degenerates to keeping
// every k-mer (each window holds exactly one candidate).
func BuildMinimizer(ref []byte, k, w int) (*Index, error) {
	if w < 1 {
		return nil, fmt.Errorf("index: minimizer window %d < 1", w)
	}
	return build(ref, k, w)
}

func build(ref []byte, k, w int) (*Index, error) {
	if k < 1 || k > MaxK {
		return nil, &KRangeError{K: k}
	}
	if len(ref) < k {
		return nil, fmt.Errorf("index: reference length %d < k=%d", len(ref), k)
	}
	// One rolling pass validates the codes and packs every k-mer with a
	// 2-bit shift-in — O(n) total instead of O(n·k) per-position repacking.
	kmers := make([]uint64, len(ref)-k+1)
	mask := kmerMask(k)
	var key uint64
	for i, c := range ref {
		if c > 3 {
			return nil, fmt.Errorf("index: invalid code %d at %d", c, i)
		}
		key = key<<2 | uint64(c)
		if i >= k-1 {
			kmers[i-k+1] = key & mask
		}
	}
	var pos []int32
	if w > 0 {
		kmers, pos = minimizers(kmers, w)
	}
	keys, offs, locs := sortSeeds(kmers, pos, k, len(ref)-k)
	return FromArrays(ref, k, w, keys, offs, locs)
}

// minimizers keeps, for every window of w consecutive k-mers, the one with
// the smallest hash, compacting the kept k-mers to the front of kmers and
// returning their positions alongside. The kept positions are strictly
// ascending, and each write lands at or before the window start, so the
// compaction never overwrites a k-mer a later window still reads.
func minimizers(kmers []uint64, w int) ([]uint64, []int32) {
	n := len(kmers)
	hashes := make([]uint64, n)
	for i, km := range kmers {
		hashes[i] = mix(km)
	}
	pos := make([]int32, 0, 2*n/(w+1)+1)
	lastKept := -1
	for s := 0; s+w <= n; s++ {
		best := s
		for j := s + 1; j < s+w; j++ {
			if hashes[j] < hashes[best] {
				best = j
			}
		}
		if best != lastKept {
			kmers[len(pos)] = kmers[best]
			pos = append(pos, int32(best))
			lastKept = best
		}
	}
	return kmers[:len(pos)], pos
}

// sortSeeds orders seeds into the table arrays. Seed i is k-mer kmers[i]
// at position pos[i], or at i when pos is nil; positions are at most
// maxPos. A counting sort on the keys' top b bits splits the seeds into
// slots; within a slot each seed is one word, the key's remaining bits
// above the position, so sorting the words orders by key and then by
// position. A compaction to distinct keys finishes the arrays.
func sortSeeds(kmers []uint64, pos []int32, k, maxPos int) (keys []uint64, offs []uint32, locs []int32) {
	posBits := uint(bits.Len(uint(maxPos)))
	// At most one slot per seed, raised where needed so the key's other
	// 2k-b bits fit above the position in one word. That happens only for
	// minimizer tables with large k, and 2^b then stays below maxPos/2.
	b := min(2*k, max(bits.Len(uint(len(kmers)))-1, 2*k+int(posBits)-64, 0))
	shift := uint(2*k - b)
	low := uint64(1)<<shift - 1

	ends := slotStarts(kmers, b, shift) // after the scatter: ends[s] ends slot s
	words := make([]uint64, len(kmers))
	for i, km := range kmers {
		p := uint64(i)
		if pos != nil {
			p = uint64(pos[i])
		}
		s := km >> shift
		words[ends[s]] = (km&low)<<posBits | p
		ends[s]++
	}

	distinct, start := 0, uint32(0)
	for s := range 1 << b {
		slot := words[start:ends[s]]
		slices.Sort(slot)
		for i := range slot {
			if i == 0 || slot[i]>>posBits != slot[i-1]>>posBits {
				distinct++
			}
		}
		start = ends[s]
	}

	keys = make([]uint64, 0, distinct)
	offs = make([]uint32, 0, distinct+1)
	locs = make([]int32, len(words))
	posMask := uint64(1)<<posBits - 1
	start = 0
	for s := range 1 << b {
		for i := start; i < ends[s]; i++ {
			if key := uint64(s)<<shift | words[i]>>posBits; len(keys) == 0 || key != keys[len(keys)-1] {
				keys = append(keys, key)
				offs = append(offs, i)
			}
			locs[i] = int32(words[i] & posMask)
		}
		start = ends[s]
	}
	return keys, append(offs, uint32(len(words))), locs
}

// FromArrays wraps table arrays — Build's own, or views into an index
// file — as an Index. It checks them once so the seeding hot path can
// index without bounds failures (monotone offsets covering locs exactly,
// strictly ascending keys inside the k-mer range, every location a valid
// k-mer start of ref) and derives the directory over the keys' top
// b = min(2k, ⌊log2 len(keys)⌋) bits with a counting pass and a prefix
// sum. ref must hold 2-bit codes; the arrays are kept, not copied.
func FromArrays(ref []byte, k, w int, keys []uint64, offs []uint32, locs []int32) (*Index, error) {
	if k < 1 || k > MaxK {
		return nil, &KRangeError{K: k}
	}
	if w < 0 {
		return nil, fmt.Errorf("index: minimizer window %d < 0", w)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("index: reference length %d < k=%d", len(ref), k)
	}
	if len(offs) != len(keys)+1 {
		return nil, fmt.Errorf("index: %d offsets for %d keys", len(offs), len(keys))
	}
	if offs[0] != 0 || int(offs[len(offs)-1]) != len(locs) {
		return nil, fmt.Errorf("index: offsets span [%d,%d] over %d locations", offs[0], offs[len(offs)-1], len(locs))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, fmt.Errorf("index: offsets not monotone at %d", i)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("index: keys not strictly ascending at %d", i)
		}
	}
	if len(keys) > 0 && keys[len(keys)-1] > kmerMask(k) {
		return nil, fmt.Errorf("index: key exceeds %d-mer range", k)
	}
	limit := int32(len(ref) - k)
	for i, p := range locs {
		if p < 0 || p > limit {
			return nil, fmt.Errorf("index: location %d out of range: %d", i, p)
		}
	}

	b := min(2*k, max(bits.Len(uint(len(keys)))-1, 0))
	shift := uint(2*k - b)
	return &Index{k: k, w: w, ref: ref, keys: keys, offs: offs, locs: locs, dir: slotStarts(keys, b, shift), shift: shift}, nil
}

// slotStarts counts keys by slot (key >> shift, b bits) and returns the
// exclusive prefix sums: entry s is the number of keys in slots below s,
// so the 2^b+1 entries bracket every slot.
func slotStarts(keys []uint64, b int, shift uint) []uint32 {
	starts := make([]uint32, 1<<b+1)
	for _, key := range keys {
		starts[key>>shift]++
	}
	var sum uint32
	for s, n := range starts {
		starts[s] = sum
		sum += n
	}
	return starts
}

// kmerMask is the low-bits mask of a packed k-mer (2 bits per base).
func kmerMask(k int) uint64 {
	return uint64(1)<<(2*k) - 1
}

// pack encodes a k-mer of 2-bit codes into a uint64.
func pack(kmer []byte) uint64 {
	var v uint64
	for _, c := range kmer {
		v = v<<2 | uint64(c)
	}
	return v
}

// mix is a 64-bit finalizer (splitmix64) used to order minimizer
// candidates pseudo-randomly, avoiding the poly-A bias of lexicographic
// order.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// K returns the seed length.
func (idx *Index) K() int { return idx.k }

// Seeds returns the number of indexed seed positions.
func (idx *Index) Seeds() int { return len(idx.locs) }

// Ref returns the indexed reference.
func (idx *Index) Ref() []byte { return idx.ref }

// Stats describes the index. Bytes is the table's footprint: the
// reference, the three stored arrays and the directory.
func (idx *Index) Stats() Stats {
	backend := BackendHash
	if idx.w > 0 {
		backend = BackendMinimizer
	}
	return Stats{
		Backend:    backend,
		K:          idx.k,
		MinimizerW: idx.w,
		RefLen:     len(idx.ref),
		Seeds:      len(idx.locs),
		Buckets:    len(idx.keys),
		Bytes:      int64(len(idx.ref)) + 8*int64(len(idx.keys)) + 4*int64(len(idx.offs)+len(idx.locs)+len(idx.dir)),
	}
}

// Arrays returns the stored arrays — the on-disk layout of the table —
// shared with the index, not to be modified.
func (idx *Index) Arrays() (keys []uint64, offs []uint32, locs []int32) {
	return idx.keys, idx.offs, idx.locs
}

// find returns the locations of a packed k-mer (empty if absent).
func (idx *Index) find(key uint64) []int32 {
	s := key >> idx.shift
	i := idx.search(key, idx.dir[s], idx.dir[s+1]-idx.dir[s])
	if i == notFound {
		return nil
	}
	return idx.locs[idx.offs[i]:idx.offs[i+1]]
}

// search returns the index of key among the n keys from keys[lo] — one
// directory slot — or notFound. The binary search halves the range
// without a data-dependent branch (slots hold one or two keys on average,
// where a mispredicted branch costs more than the comparisons). Manual
// loop, no closures: the seeding hot path stays allocation-free.
func (idx *Index) search(key uint64, lo, n uint32) uint32 {
	if n == 0 {
		return notFound
	}
	for n > 1 {
		half := n / 2
		if idx.keys[lo+half] <= key {
			lo += half
		}
		n -= half
	}
	if idx.keys[lo] != key {
		return notFound
	}
	return lo
}

// Lookup returns the reference positions of the seed (nil if absent). The
// returned slice is shared with the index and must not be modified.
func (idx *Index) Lookup(kmer []byte) []int32 {
	if len(kmer) != idx.k {
		return nil
	}
	for _, c := range kmer {
		if c > 3 {
			return nil
		}
	}
	return idx.find(pack(kmer))
}

// CandidateLocationsInto runs the seeding step with caller-owned scratch:
// every k-mer of the read is looked up and each hit votes for the implied
// read start position (hit position minus read offset); the scratch
// aggregates the votes into ranked candidates. The returned slice views
// s.cands and stays valid until the scratch's next use. Read k-mers are
// packed with a rolling 2-bit update (O(n) instead of O(n·k)); k-mers
// containing codes outside the DNA alphabet cast no votes. Reads must be
// shorter than 2^31 bases.
//
// The lookups run in stages over the scratch's arrays — pack every key,
// probe the directory for every key, search every slot, then read every
// key's locations — rather than one k-mer at a time. A lookup is a chain
// of dependent cache misses (directory, keys, offsets, locations), but the
// lookups are independent of one another, so within a stage the misses of
// many k-mers overlap. Go has no prefetch intrinsic; staging is how the
// hot path gets memory-level parallelism.
func (idx *Index) CandidateLocationsInto(s *SeedScratch, read []byte, maxCandidates int) []Candidate {
	s.keys, s.offs = s.keys[:0], s.offs[:0]
	mask := kmerMask(idx.k)
	var key uint64
	valid := 0 // consecutive in-alphabet codes ending at the current base
	for i, c := range read {
		if c > 3 {
			valid = 0
			continue
		}
		valid++
		key = key<<2 | uint64(c)
		if valid >= idx.k {
			s.keys = append(s.keys, key&mask)
			s.offs = append(s.offs, int32(i-idx.k+1))
		}
	}

	n := len(s.keys)
	s.lo, s.n = slices.Grow(s.lo[:0], n)[:n], slices.Grow(s.n[:0], n)[:n]
	for i, key := range s.keys {
		slot := key >> idx.shift
		s.lo[i], s.n[i] = idx.dir[slot], idx.dir[slot+1]-idx.dir[slot]
	}

	for i, key := range s.keys {
		s.lo[i] = idx.search(key, s.lo[i], s.n[i])
	}

	s.starts = s.starts[:0]
	for i, lo := range s.lo {
		if lo == notFound {
			continue
		}
		off := s.offs[i]
		for _, pos := range idx.locs[idx.offs[lo]:idx.offs[lo+1]] {
			s.starts = append(s.starts, pos-off)
		}
	}
	return s.collect(maxCandidates)
}
