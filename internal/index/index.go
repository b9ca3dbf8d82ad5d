// Package index implements candidate generation for read mapping
// (Figure 1, steps 0 and 1, and the "hash-table based indexing" use case
// of Section 11): a k-mer seed table over the reference (all fixed-length
// seeds keyed to their locations), optionally sampled with window
// minimizers as Minimap2-class mappers do to shrink the index.
//
// Both forms are one seed table, Index, keyed by canonical k-mers (the
// smaller of a k-mer and its reverse complement, as in Minimap2) with a
// strand bit per location, so one pass over a short read seeds both
// strands. Its arrays are the sections of an index file (version 2), so
// built and loaded tables share one lookup (FromArrays):
//
//   - entries: one 8-byte word per key, ascending within the directory
//     slot of the key's top b bits: the key's other bits, then its only
//     location pos<<1|strand (flag 0) or the offset of its run (flag 1);
//   - dir: 2^b+1 offsets; dir[s]:dir[s+1] brackets slot s's entries;
//   - locs: each repeated key's run, a count, then its locations.
package index

import (
	"fmt"
	"math/bits"
	"slices"
)

// Index is the seed table; the package comment gives its layout.
type Index struct {
	k       int
	w       int // minimizer window; 0 when every k-mer is indexed
	ref     []byte
	entries []uint64
	dir     []uint32
	locs    []uint32
	shift   uint // key >> shift is the key's directory slot
	valBits uint // an entry's value width: the key's low bits sit above it
	seeds   int
}

// MaxRefLen bounds the reference: a location pos<<1|strand fits 32 bits.
const MaxRefLen = 1<<31 - 1

// Build indexes every k-mer of the encoded reference.
func Build(ref []byte, k int) (*Index, error) {
	return build(ref, k, 0)
}

// BuildMinimizer indexes only window minimizers: for every window of w
// consecutive k-mers, the lexicographically smallest (after hashing) is
// kept. This is Minimap2's sampling scheme, shrinking the index roughly
// 2/(w+1)-fold while preserving mapability. w=1 degenerates to keeping
// every k-mer (each window holds exactly one candidate). The windows rank
// the reference's forward k-mers; the kept ones are keyed canonically.
func BuildMinimizer(ref []byte, k, w int) (*Index, error) {
	if w < 1 {
		return nil, fmt.Errorf("index: minimizer window %d < 1", w)
	}
	return build(ref, k, w)
}

// checkShape checks a built or loaded table's k, w and reference length.
func checkShape(ref []byte, k, w int) error {
	if k < 1 || k > MaxK {
		return &KRangeError{K: k}
	}
	if w < 0 || len(ref) < k || len(ref) > MaxRefLen {
		return fmt.Errorf("index: window %d < 0 or reference length %d outside [k=%d, %d]", w, len(ref), k, MaxRefLen)
	}
	return nil
}

func build(ref []byte, k, w int) (*Index, error) {
	if err := checkShape(ref, k, w); err != nil {
		return nil, err
	}
	// One rolling pass validates and packs every k-mer and its reverse
	// complement. A seed is its key above its strand bit (1: key from rc).
	n := len(ref) - k + 1
	kmers, hashes := make([]uint64, n), make([]uint64, min(w, 1)*n) // hashes rank minimizers
	mask, top := kmerMask(k), uint(2*k-2)
	var fwd, rc uint64
	for i, c := range ref {
		if c > 3 {
			return nil, fmt.Errorf("index: invalid code %d at %d", c, i)
		}
		fwd = (fwd<<2 | uint64(c)) & mask
		rc = rc>>2 | uint64(3-c)<<top
		if i >= k-1 && w > 0 {
			kmers[i-k+1], hashes[i-k+1] = fwd, mix(fwd)
		} else if i >= k-1 {
			key := canonical(fwd, rc, mask)
			kmers[i-k+1] = key>>1&^1 | key&1
		}
	}
	var pos []int32
	if w > 0 {
		kmers, pos = minimizers(kmers, hashes, w)
		for i, fwd := range kmers { // canonical keys of the kept k-mers only
			key := canonical(fwd, revComp(fwd, k), mask)
			kmers[i] = key>>1&^1 | key&1
		}
	}
	return sortSeeds(ref, k, w, kmers, pos), nil
}

// canonical returns the table key of a k-mer packed forward (fwd) and as
// its reverse complement (rc), shifted left twice, with bit 1 set for a
// palindrome and bit 0 when the key comes from rc. The key is the smaller
// of the two, which crowds the directory's low slots, times an odd
// constant modulo 2^2k (mask), which spreads it and keeps keys distinct.
func canonical(fwd, rc, mask uint64) uint64 {
	key, flag := fwd, uint64(0)
	if rc < fwd {
		key, flag = rc, 1
	}
	if rc == fwd {
		flag = 2
	}
	return key*0x9e3779b97f4a7c15&mask<<2 | flag
}

// revComp reverse-complements a packed k-mer, reversing codes in bytes, then bytes.
func revComp(x uint64, k int) uint64 {
	x = ^x
	x = x>>2&0x3333333333333333 | x&0x3333333333333333<<2
	x = x>>4&0x0f0f0f0f0f0f0f0f | x&0x0f0f0f0f0f0f0f0f<<4
	return bits.ReverseBytes64(x) >> (64 - 2*k)
}

// minimizers keeps, for every window of w consecutive k-mers, the one with
// the smallest hash, compacting the kept k-mers to the front of kmers and
// returning their positions alongside. The kept positions are strictly
// ascending, and each write lands at or before the window start, so the
// compaction never overwrites a k-mer a later window still reads.
func minimizers(kmers, hashes []uint64, w int) ([]uint64, []int32) {
	n := len(kmers)
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

// valueBits fits a location or a run offset (≤ 1.5 words/seed), and a flag.
func valueBits(maxPos int) uint { return uint(bits.Len(uint(maxPos))) + 2 }

// dirBits allots n keys a slot each at most, more if 2k-b key bits overflow.
func dirBits(n, k int, valBits uint) int {
	return min(2*k, max(bits.Len(uint(n))-1, 2*k+int(valBits)-64, 0))
}

// sortSeeds orders seeds into the table. Seed i is kmers[i] (a key above
// its strand bit) at position pos[i], or at i when pos is nil. A counting
// sort on the keys' top bits splits the seeds into slots, where each seed
// is its singleton entry, so sorting a slot orders by key, then position.
// Compaction then keeps a key seen once as its word and moves a repeated
// key's locations to a run in locs.
func sortSeeds(ref []byte, k, w int, kmers []uint64, pos []int32) *Index {
	valBits := valueBits(len(ref) - k)
	b := dirBits(len(kmers), k, valBits)
	shift := uint(2*k - b)
	low, valMask := uint64(1)<<shift-1, uint64(1)<<valBits-1

	// dir[s] counts slot s, then holds its end during the scatter.
	dir := make([]uint32, 1<<b+1)
	for _, km := range kmers {
		dir[km>>(shift+1)]++
	}
	var sum uint32
	for s, c := range dir {
		dir[s] = sum
		sum += c
	}
	words := make([]uint64, len(kmers))
	for i, km := range kmers {
		p := uint64(i)
		if pos != nil {
			p = uint64(pos[i])
		}
		s := km >> (shift + 1)
		words[dir[s]] = (km>>1&low)<<valBits | (p<<1|km&1)<<1
		dir[s]++
	}

	var locs []uint32
	entries := words[:0] // compaction never overtakes the slot being read
	start := uint32(0)
	for s := range 1 << b {
		slot := words[start:dir[s]]
		start, dir[s] = dir[s], uint32(len(entries))
		slices.Sort(slot)
		for i := 0; i < len(slot); {
			j := i + 1
			for j < len(slot) && slot[j]>>valBits == slot[i]>>valBits {
				j++
			}
			if j == i+1 {
				entries = append(entries, slot[i])
			} else {
				// The entry may overwrite slot[i], so the run goes first.
				e := slot[i]>>valBits<<valBits | uint64(len(locs))<<1 | 1
				locs = append(locs, uint32(j-i))
				for _, wd := range slot[i:j] {
					locs = append(locs, uint32(wd&valMask>>1))
				}
				entries = append(entries, e)
			}
			i = j
		}
	}
	dir[1<<b] = uint32(len(entries))

	// Keep at most one slot per distinct key: fold the directory's low
	// bits into the entries, whose order they already follow.
	if fold := b - dirBits(len(entries), k, valBits); fold > 0 {
		for s := range 1 << b {
			for i := dir[s]; i < dir[s+1]; i++ {
				entries[i] |= uint64(s&(1<<fold-1)) << (shift + valBits)
			}
		}
		for s := range 1<<(b-fold) + 1 {
			dir[s] = dir[s<<fold]
		}
		b, shift = b-fold, shift+uint(fold)
		dir = dir[:1<<b+1]
	}
	return &Index{k: k, w: w, ref: ref, entries: entries, dir: dir, locs: locs,
		shift: shift, valBits: valBits, seeds: len(kmers)}
}

// FromArrays wraps table arrays (views into an index file) as an Index,
// checked so that lookups stay in bounds and in ref: 2^b+1 monotone
// directory offsets spanning the entries, b ≤ 2k leaving room for the key
// bits, keys ascending within a slot, valid locations, and runs of two or
// more tiling locs. ref must hold 2-bit codes; the arrays are kept.
func FromArrays(ref []byte, k, w int, entries []uint64, dir, locs []uint32) (*Index, error) {
	if err := checkShape(ref, k, w); err != nil {
		return nil, err
	}
	b := bits.Len(uint(max(len(dir), 2) - 2))
	maxPos := uint64(len(ref) - k)
	valBits := valueBits(int(maxPos))
	if len(dir) != 1<<b+1 || b > 2*k || 2*k-b+int(valBits) > 64 || dir[0] != 0 || int(dir[len(dir)-1]) != len(entries) {
		return nil, fmt.Errorf("index: malformed directory of %d offsets over %d entries for k=%d", len(dir), len(entries), k)
	}
	// Key bits may only fall where a non-empty slot starts: count both.
	valMask, limit, falls := uint64(1)<<valBits-1, ^uint64(0)>>(64-uint(2*k-b)-valBits), 0
	for s := 1; s < len(dir); s++ {
		if dir[s] < dir[s-1] {
			return nil, fmt.Errorf("index: directory not monotone at %d", s)
		}
		if i := dir[s-1]; i > 0 && i < uint32(len(entries)) {
			_, rise := bits.Sub64(entries[i-1]&^valMask, entries[i]&^valMask, 0)
			falls -= int((1 - rise) & uint64(min(dir[s]-i, 1)))
		}
	}
	seeds, next := len(entries), uint64(0) // next: where the next run must start
	for i, e := range entries {
		if i > 0 {
			_, rise := bits.Sub64(entries[i-1]&^valMask, e&^valMask, 0)
			falls += int(1 - rise)
		}
		if v := e & valMask; e > limit || (v&1 == 0 && v>>2 > maxPos) {
			return nil, fmt.Errorf("index: entry %d out of range", i)
		} else if v&1 == 0 {
			continue
		}
		if e&valMask>>1 != next || next >= uint64(len(locs)) || locs[next] < 2 || uint64(locs[next]) >= uint64(len(locs))-next {
			return nil, fmt.Errorf("index: entry %d holds a malformed run", i)
		}
		run := locs[next+1 : next+1+uint64(locs[next])]
		for _, l := range run {
			if uint64(l>>1) > maxPos {
				return nil, fmt.Errorf("index: location %d out of range", l>>1)
			}
		}
		seeds, next = seeds+len(run)-1, next+1+uint64(len(run))
	}
	if next != uint64(len(locs)) || falls != 0 {
		return nil, fmt.Errorf("index: runs cover %d of %d location words, %d keys out of order", next, len(locs), falls)
	}
	return &Index{k: k, w: w, ref: ref, entries: entries, dir: dir, locs: locs,
		shift: uint(2*k - b), valBits: valBits, seeds: seeds}, nil
}

// kmerMask is the low-bits mask of a packed k-mer (2 bits per base).
func kmerMask(k int) uint64 {
	return uint64(1)<<(2*k) - 1
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

// Ref returns the indexed reference.
func (idx *Index) Ref() []byte { return idx.ref }

// Stats describes the index. Bytes is the table's footprint: the
// reference and the three stored arrays.
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
		Seeds:      idx.seeds,
		Buckets:    len(idx.entries),
		Bytes:      int64(len(idx.ref)) + 8*int64(len(idx.entries)) + 4*int64(len(idx.dir)+len(idx.locs)),
	}
}

// Arrays returns the stored arrays (the file's sections); do not modify.
func (idx *Index) Arrays() (entries []uint64, dir, locs []uint32) {
	return idx.entries, idx.dir, idx.locs
}

// CandidateLocationsInto runs the seeding step with caller-owned scratch:
// every k-mer of the read is looked up and each hit votes for the implied
// read start position (hit position minus read offset); the scratch
// aggregates the votes into ranked candidates. The returned slice views
// s.cands and stays valid until the scratch's next use. Read k-mers are
// packed with a rolling 2-bit update; k-mers containing codes outside the
// DNA alphabet cast no votes. Reads must be shorter than 2^31 bases.
//
// A hit votes when the reference holds the read k-mer itself (strand bits
// agree, or it is a palindrome). A non-nil rev records the other hits'
// starts, those of the read's reverse complement: rev.Rank then returns
// exactly the candidates of a call over the reverse complement.
//
// The lookups run in stages (pack, probe the directory, prefetch and
// search every slot, read every hit) so that the cache misses of
// independent lookups overlap: Go has no prefetch intrinsic.
func (idx *Index) CandidateLocationsInto(s *SeedScratch, read []byte, maxCandidates int, rev *SeedScratch) []Candidate {
	// The stages work on local slices: stores through s would make the
	// compiler reload every slice header after each element it writes.
	keys, offs, entries, dir := s.keys[:0], s.offs[:0], idx.entries, idx.dir
	mask, top := kmerMask(idx.k), uint(2*idx.k-2)
	var fwd, rc uint64
	valid := 0 // consecutive in-alphabet codes ending at the current base
	for i, c := range read {
		if c > 3 {
			valid = 0
			continue
		}
		valid++
		fwd = (fwd<<2 | uint64(c)) & mask
		rc = rc>>2 | uint64(3-c)<<top
		if valid >= idx.k {
			keys = append(keys, canonical(fwd, rc, mask))
			offs = append(offs, int32(i-idx.k+1))
		}
	}
	if len(entries) == 0 { // a minimizer table whose windows fit no read
		keys = keys[:0]
	}
	n := len(keys)
	slotShift, low, last := idx.shift+2, uint64(1)<<idx.shift-1, uint32(len(entries)-1)
	los, ns := slices.Grow(s.lo[:0], n)[:n], slices.Grow(s.n[:0], n)[:n]
	for i, key := range keys {
		slot := key >> slotShift
		// An empty slot may start past the last entry.
		los[i], ns[i] = min(dir[slot], last), dir[slot+1]-dir[slot]
	}

	// Prefetch each slot's first entry: this small loop keeps dozens of
	// misses in flight, the search's long body only a few.
	var sink uint64
	for _, lo := range los {
		sink += entries[lo]
	}

	// Search each slot for the key's entry (words at most bound) with no
	// branch on table data, which would mispredict as often as k-mers
	// miss; slots average two keys, so the last two halvings are unrolled.
	valBits := idx.valBits
	valMask := uint64(1)<<valBits - 1
	for i, key := range keys {
		bound, lo, n := key>>2&low<<valBits|valMask, los[i], ns[i]
		for n > 4 {
			lo, n = halve(entries, bound, lo, n)
		}
		lo, n = halve(entries, bound, lo, n)
		lo, _ = halve(entries, bound, lo, n)
		found := lo
		if entries[lo]|valMask != bound {
			found = notFound
		}
		if n == 0 {
			found = notFound
		}
		los[i] = found
	}

	starts := s.starts[:0]
	var revStarts []int32
	if rev != nil {
		revStarts = rev.starts[:0]
	}
	revBase := int32(len(read) - idx.k) // a read offset's mirror on the reverse complement
	for i, lo := range los {
		if lo == notFound {
			continue
		}
		key, off := keys[i], offs[i]
		v := entries[lo] & valMask
		if v&1 == 0 {
			starts, revStarts = vote(starts, revStarts, rev != nil, uint32(v>>1), key, off, revBase-off)
			continue
		}
		run := idx.locs[v>>1+1:]
		for _, l := range run[:idx.locs[v>>1]] {
			starts, revStarts = vote(starts, revStarts, rev != nil, l, key, off, revBase-off)
		}
	}
	s.keys, s.offs, s.lo, s.n, s.starts, s.sink = keys, offs, los, ns, starts, sink
	if rev != nil {
		rev.starts = revStarts
	}
	return s.Rank(maxCandidates)
}

// halve is one branch-free binary search step over entries[lo:lo+n].
func halve(entries []uint64, bound uint64, lo, n uint32) (uint32, uint32) {
	half := n / 2
	_, above := bits.Sub64(bound, entries[lo+half], 0)
	return lo + half&(uint32(above)-1), n - half
}

// vote records a hit at location l of a read k-mer (key as in canonical)
// at offset off (roff on the reverse complement) in starts if the strands
// agree, in revStarts (if withRev) if not, both for a palindrome; no branch.
func vote(starts, revStarts []int32, withRev bool, l uint32, key uint64, off, roff int32) ([]int32, []int32) {
	agree, both := int(uint32(key)^l^1)&1, int(key>>1)&1
	pos := int32(l >> 1)
	starts = append(starts, pos-off)
	starts = starts[:len(starts)-1+(agree|both)]
	if withRev {
		revStarts = append(revStarts, pos-roff)
		revStarts = revStarts[:len(revStarts)-1+(agree^1|both)]
	}
	return starts, revStarts
}
