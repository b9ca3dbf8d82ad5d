// Package hw models the GenASM hardware accelerator (Section 7): the
// GenASM-DC linear cyclic systolic array, the GenASM-TB unit, their SRAMs,
// and the vault-level organization inside 3D-stacked memory. It provides
//
//   - the paper's analytical performance model (Section 9 "Performance
//     Model" and the Section 10.5 cycle formulas), calibrated against the
//     throughput points the paper reports;
//   - a cycle-accurate simulator of the systolic schedule of Figure 5 with
//     SRAM traffic accounting;
//   - the area/power model seeded with the Table 1 component values;
//   - the baseline accelerator/software constants the paper compares
//     against (GACT, SillaX, ASAP, Shouji, CPU/GPU power figures).
package hw

import "fmt"

// Config describes one GenASM accelerator and its memory-system context.
type Config struct {
	// PEs is the number of processing elements in the GenASM-DC systolic
	// array (paper: 64).
	PEs int
	// PEWidth is the number of bitvector bits each PE processes (64).
	PEWidth int
	// WindowSize and Overlap are the divide-and-conquer parameters
	// (W=64, O=24).
	WindowSize int
	Overlap    int
	// FreqHz is the accelerator clock (1 GHz).
	FreqHz float64
	// Vaults is the number of accelerators working in parallel in the
	// logic layer (one per HMC vault, 32).
	Vaults int
	// DCSRAMBytes is the DC-SRAM capacity (8 KB).
	DCSRAMBytes int
	// TBSRAMBytesPerPE is each PE's TB-SRAM capacity (1.5 KB).
	TBSRAMBytesPerPE int
	// WindowOverheadCycles is the per-window pipeline fill/drain and
	// control overhead on top of the steady-state cycle formulas. The
	// value 43 is calibrated so the model reproduces the two GenASM
	// throughput points the paper reports in Figure 12 (236,686
	// alignments/s at 1 kbp and 23,669 at 10 kbp for one accelerator at
	// 1 GHz); TestCalibratedFigure12Points pins both.
	WindowOverheadCycles float64
}

// Default returns the paper's configuration (Sections 7 and 9).
func Default() Config {
	return Config{
		PEs:                  64,
		PEWidth:              64,
		WindowSize:           64,
		Overlap:              24,
		FreqHz:               1e9,
		Vaults:               32,
		DCSRAMBytes:          8 * 1024,
		TBSRAMBytesPerPE:     1536,
		WindowOverheadCycles: 43,
	}
}

// Validate checks configuration invariants.
func (c Config) Validate() error {
	switch {
	case c.PEs < 1:
		return fmt.Errorf("hw: PEs %d < 1", c.PEs)
	case c.PEWidth < 1:
		return fmt.Errorf("hw: PE width %d < 1", c.PEWidth)
	case c.WindowSize < 2:
		return fmt.Errorf("hw: window size %d < 2", c.WindowSize)
	case c.Overlap < 0 || c.Overlap >= c.WindowSize:
		return fmt.Errorf("hw: overlap %d out of [0, W=%d)", c.Overlap, c.WindowSize)
	case c.FreqHz <= 0:
		return fmt.Errorf("hw: frequency %v <= 0", c.FreqHz)
	case c.Vaults < 1:
		return fmt.Errorf("hw: vaults %d < 1", c.Vaults)
	}
	return nil
}

// TBSRAMBytesTotal is the total TB-SRAM capacity of the accelerator.
func (c Config) TBSRAMBytesTotal() int { return c.PEs * c.TBSRAMBytesPerPE }

// TBSRAMBytesNeededPerWindow is the storage one window's intermediate
// bitvectors require: W iterations x 3 bitvectors x W error levels x W bits
// (Section 6's W*3*W*W bits after the substitution-bitvector optimization),
// spread over the PEs.
func (c Config) TBSRAMBytesNeededPerWindow() int {
	w := c.WindowSize
	return w * 3 * w * w / 8
}

// DCSRAMBytesNeeded is the DC-SRAM working set for aligning a read of
// length m with threshold k (Section 7's sizing example: a 10 kbp read at
// 15% error with its 11.5 kbp text region fits in 8 KB): the 2-bit-packed
// reference region and query, the four per-character pattern bitmasks of
// one window, and the per-PE oldR/MSB spill words.
func (c Config) DCSRAMBytesNeeded(m, k int) int {
	refBits := (m + k) * 2
	queryBits := m * 2
	bitmaskBits := 4 * c.WindowSize
	spillBits := c.PEs * c.PEWidth * 2
	return (refBits + queryBits + bitmaskBits + spillBits + 7) / 8
}
