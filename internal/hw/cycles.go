package hw

import "math"

// Windows returns the number of divide-and-conquer windows for a read of
// length m at edit distance threshold k: the matched region spans up to
// m+k text characters and each window advances W-O of them (Section 10.5).
func (c Config) Windows(m, k int) float64 {
	return float64(m+k) / float64(c.WindowSize-c.Overlap)
}

// DCCyclesUnwindowed is the Section 10.5 cycle count of GenASM-DC without
// the divide-and-conquer approach: ceil(m/w) bitvector words x (m+k) text
// iterations x k error levels, spread over P PEs.
func (c Config) DCCyclesUnwindowed(m, k int) float64 {
	words := math.Ceil(float64(m) / float64(c.PEWidth))
	return words * float64(m+k) * float64(k) / float64(c.PEs)
}

// DCCyclesWindowed is the Section 10.5 cycle count of GenASM-DC with
// windowing: (ceil(W/w) x W x min(W,k) / P) cycles per window times the
// number of windows.
func (c Config) DCCyclesWindowed(m, k int) float64 {
	w := c.WindowSize
	words := math.Ceil(float64(w) / float64(c.PEWidth))
	perWindow := words * float64(w) * float64(min(w, k)) / float64(c.PEs)
	return perWindow * c.Windows(m, k)
}

// TBCycles is GenASM-TB's cycle count: one CIGAR operation per cycle,
// (W-O) consumed characters per window (Section 10.5: (W-O) x (m+k)/(W-O)
// = m+k cycles in total).
func (c Config) TBCycles(m, k int) float64 {
	return float64(c.WindowSize-c.Overlap) * c.Windows(m, k)
}

// AlignmentCycles is the end-to-end cycle count for aligning one read of
// length m with edit distance threshold k on one accelerator: DC + TB plus
// the calibrated per-window overhead.
func (c Config) AlignmentCycles(m, k int) float64 {
	return c.DCCyclesWindowed(m, k) + c.TBCycles(m, k) + c.WindowOverheadCycles*c.Windows(m, k)
}

// DistanceCycles is the cycle count for the edit distance use case
// (Section 10.4): the same DC+TB window interplay, with the final CIGAR
// assembly elided (the traceback still runs to chain windows, so the cycle
// count matches AlignmentCycles; the output write is dropped).
func (c Config) DistanceCycles(m, k int) float64 {
	return c.AlignmentCycles(m, k)
}

// FilterCycles is the cycle count for the pre-alignment filtering use case
// (Section 10.3): GenASM-DC only, non-windowed, over a text of length n
// with threshold k.
func (c Config) FilterCycles(m, n, k int) float64 {
	words := math.Ceil(float64(m) / float64(c.PEWidth))
	return words*float64(n)*float64(k)/float64(c.PEs) + c.WindowOverheadCycles
}

// AlignmentsPerSecond converts a per-accelerator cycle count into total
// throughput across all vaults (performance scales linearly with the
// number of parallel accelerators, Section 10.5 "technology-level").
func (c Config) AlignmentsPerSecond(m, k int) float64 {
	return c.FreqHz / c.AlignmentCycles(m, k) * float64(c.Vaults)
}

// AlignmentsPerSecondOneAccel is the single-accelerator throughput used
// for the iso-bandwidth comparisons with GACT (Figures 12 and 13).
func (c Config) AlignmentsPerSecondOneAccel(m, k int) float64 {
	return c.FreqHz / c.AlignmentCycles(m, k)
}

// AlignmentSeconds is the latency of one alignment on one accelerator.
func (c Config) AlignmentSeconds(m, k int) float64 {
	return c.AlignmentCycles(m, k) / c.FreqHz
}

// MemoryBandwidthBytesPerRead estimates main-memory traffic per read: the
// accelerator reads the reference region and the query once (Section 7:
// "GenASM accesses the memory ... only to read the reference and the query
// sequences"), 2 bits per base, plus the CIGAR write-back.
func (c Config) MemoryBandwidthBytesPerRead(m, k int) float64 {
	refBits := float64(m+k) * 2
	queryBits := float64(m) * 2
	cigarBits := float64(m+k) * 4 // ~4 bits per op, run-length compressed
	return (refBits + queryBits + cigarBits) / 8
}
