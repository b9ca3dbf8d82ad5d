// Package core implements the GenASM algorithms — the paper's primary
// contribution:
//
//   - GenASM-DC (Section 5): the modified Bitap algorithm with multi-word
//     bitvectors (long-read support) computing the R status bitvectors
//     and the minimum edit distance;
//   - GenASM-TB (Section 6): the first Bitap-compatible traceback, which
//     walks a chain of 0s through the match/substitution/insertion/
//     deletion bitvectors from MSB to LSB, emitting the CIGAR of the
//     optimal alignment;
//   - the divide-and-conquer window scheme (Section 6) that bounds the
//     memory footprint per window. The stored traceback state is Scrooge's
//     SENE layout (Lindegger et al.): one R bitvector per (error level,
//     text position), from which the traceback re-derives all four edge
//     bitvectors, instead of the paper's three stored per-edge vectors.
//
// Conventions (matching Algorithm 1/2 and Figure 3 of the paper): bit j of
// every bitvector refers to pattern position m-1-j, so bit m-1 (the "MSB")
// becoming 0 signals that the whole pattern has been consumed; the text is
// scanned right to left during DC, and the stored bitvectors are indexed by
// absolute text position so that TB walks forward through the text.
package core

import (
	"context"
	"errors"
	"fmt"

	"genasm/internal/alphabet"
	"genasm/internal/bitvec"
	"genasm/internal/cigar"
)

// Default hardware-faithful parameters (Sections 7 and 10.2: the optimum
// (W, O) setting in terms of performance and accuracy is W=64, O=24).
const (
	DefaultWindowSize = 64
	DefaultOverlap    = 24
)

// Order fixes the priority of the three error cases during traceback.
// Algorithm 2's default checks substitution before the gap-open cases,
// which mimics schemes where substitutions are cheaper than gap openings;
// Section 6 notes the order should be inverted for the opposite scheme.
type Order int

// Traceback orders.
const (
	// OrderSubFirst checks substitution, then insertion-open, then
	// deletion-open (Algorithm 2 as printed).
	OrderSubFirst Order = iota
	// OrderGapFirst checks insertion-open, then deletion-open, then
	// substitution (for scoring schemes where gaps are cheaper).
	OrderGapFirst
	// OrderDelFirst checks deletion-open, then substitution, then
	// insertion-open (useful when the text is expected to be longer).
	OrderDelFirst
)

// Config parameterizes a GenASM aligner.
type Config struct {
	// Alphabet of the inputs. Defaults to alphabet.DNA.
	Alphabet *alphabet.Alphabet
	// WindowSize is W, the number of pattern/text characters per window.
	// Defaults to 64 (the hardware configuration).
	WindowSize int
	// Overlap is O, the number of characters shared between consecutive
	// windows. Defaults to 24.
	Overlap int
	// Order is the preferred traceback priority of the error cases (it is
	// tried first and wins ties during per-window order selection).
	Order Order
}

func (c Config) withDefaults() Config {
	if c.Alphabet == nil {
		c.Alphabet = alphabet.DNA
	}
	if c.WindowSize == 0 {
		c.WindowSize = DefaultWindowSize
	}
	if c.Overlap == 0 {
		c.Overlap = DefaultOverlap
	}
	return c
}

func (c Config) validate() error {
	if c.WindowSize < 2 {
		return fmt.Errorf("core: window size %d too small", c.WindowSize)
	}
	if c.Overlap < 0 || c.Overlap >= c.WindowSize {
		return fmt.Errorf("core: overlap %d must be in [0, W=%d)", c.Overlap, c.WindowSize)
	}
	return nil
}

// ErrDistanceBound is returned by AlignRegion when the alignment's
// distance exceeds the caller's bound. It is returned bare (never
// wrapped), so the rejection path allocates nothing.
var ErrDistanceBound = errors.New("core: alignment distance exceeds bound")

// Alignment is the result of a GenASM alignment.
type Alignment struct {
	// Cigar is the traceback output (Section 6), query-vs-text.
	//
	// Alignments produced by a Workspace view the workspace's CIGAR arena:
	// Cigar stays valid only until the next Align, AlignRegion,
	// AlignGlobal or EditDistance call on the same workspace — the
	// software analogue of reading a result out of the accelerator's
	// output SRAM before the next launch overwrites it. Callers that
	// retain the alignment past that point (store it, send it to another
	// goroutine, return the workspace to a pool) must call Clone first.
	// Distance, TextStart, TextEnd and Windows are plain values and always
	// safe to retain.
	Cigar cigar.Cigar
	// Distance is the number of edit operations in Cigar.
	Distance int
	// TextStart is the text offset where the alignment begins (non-zero
	// only from AlignRegion).
	TextStart int
	// TextEnd is the exclusive text offset where the alignment ends.
	TextEnd int
	// Windows is the number of DC/TB windows processed.
	Windows int
}

// Clone returns the alignment with Cigar copied out of the producing
// workspace's arena into caller-owned storage, safe to retain across
// further calls on that workspace.
func (a Alignment) Clone() Alignment {
	a.Cigar = a.Cigar.Clone()
	return a
}

// Workspace holds all scratch memory for one aligner; it is the software
// analogue of one accelerator's DC-SRAM + TB-SRAMs and is reused across
// alignments. A Workspace is not safe for concurrent use; create one per
// goroutine (the hardware analogue: one accelerator per vault).
type Workspace struct {
	cfg    Config
	nw     int // words per bitvector row (ceil(W/64))
	stride int // error levels per stored text position (W+1)
	npos   int // text positions per stored level (2W+1)
	// fast runs the single-word traceback walker (tbWindowFast,
	// tbSelectFast) instead of the generic one. New sets it exactly when
	// nw == 1; tests clear it to run the generic walker on W <= 64.
	fast bool

	// ctx, when non-nil, is consulted once per DC window so a pathological
	// alignment cannot wedge a worker past its deadline (see SetContext).
	ctx context.Context

	pm alphabet.PatternMasks

	// rStore is the single entry store (SENE): the R status
	// bitvector per (level, textPos), indexed [level*npos + textPos]*nw,
	// from which the traceback re-derives all four edge bitvectors. Each
	// level's row spans the window's 2W text positions plus one for the
	// scan's initial all-ones entry, so a match run reads consecutive
	// words.
	rStore []uint64

	// scanText/scanNT are the most recent DC window's text and real
	// (un-padded) length; the SENE traceback needs them to re-derive the
	// match bitvector from the pattern masks.
	scanText []byte
	scanNT   int
	// scanPM caches the pattern-mask word per scanned text position
	// (all-ones for phantom padding), filled by the single-word scan's
	// level 0 so the fast walker's match queries are one array read.
	scanPM []uint64

	// ones is an all-ones pattern-mask row used for phantom end-padding
	// iterations (sentinel text characters that match nothing).
	ones []uint64

	// builder accumulates the full alignment's CIGAR; the Alignment
	// returned by Align views its arena (see Alignment.Cigar).
	builder cigar.Builder
	// tbScratch and tbBestOps are the per-window traceback-candidate
	// scratch of tbSelect/tbBest (never both active), reused across
	// windows and alignments so candidate evaluation is allocation-free.
	tbScratch cigar.Builder
	tbBestOps cigar.Cigar
	// tbForks and tbReplay are tbSelectFast's scratch: the forks of the
	// recorded walk and two buffers for the walks resumed from them.
	tbForks  []tbFork
	tbReplay [2]cigar.Builder
}

// New creates a Workspace from the configuration. A zero Config gives the
// paper's default setup: DNA, W=64, O=24, affine-extend traceback. The
// store holds every error level a window can need (0..W: see dcWindow).
func New(cfg Config) (*Workspace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &Workspace{cfg: cfg}
	w.nw = bitvec.Words(cfg.WindowSize)
	w.stride = cfg.WindowSize + 1
	// One stored bitvector per entry (SENE) over 2W text positions — W
	// real characters plus up to W phantom end-padding iterations in the
	// terminal window (see dcWindow), or the 2W real characters of a
	// search-mode first window (see align) — plus one position for the
	// scan's initial all-ones rows.
	w.npos = 2*cfg.WindowSize + 1
	w.rStore = make([]uint64, w.stride*w.npos*w.nw)
	w.fast = w.nw == 1
	if w.fast {
		w.scanPM = make([]uint64, 2*cfg.WindowSize)
		// The traceback scratch at its bounds: a walk takes at most one
		// fork per error and makes at most two runs per error plus one,
		// so tbSelectFast never grows it.
		w.tbForks = make([]tbFork, 0, cfg.WindowSize)
		w.tbScratch.Grow(2*cfg.WindowSize + 1)
		w.tbReplay[0].Grow(2*cfg.WindowSize + 1)
		w.tbReplay[1].Grow(2*cfg.WindowSize + 1)
	}
	w.ones = make([]uint64, w.nw)
	bitvec.Fill(w.ones, ^uint64(0))
	w.pm.GenerateInto(cfg.Alphabet, make([]byte, cfg.WindowSize))
	return w, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Workspace {
	w, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Config returns the (defaulted) configuration of the workspace.
func (w *Workspace) Config() Config { return w.cfg }

// rEntry returns the stored R entry at (textPos, level).
func (w *Workspace) rEntry(textPos, level int) []uint64 {
	o := (level*w.npos + textPos) * w.nw
	return w.rStore[o : o+w.nw]
}

// pmAt returns the pattern mask of the scanned window text character at
// textPos — all ones for phantom end-padding positions past the text end,
// whose sentinel character matches nothing.
func (w *Workspace) pmAt(textPos int) []uint64 {
	if textPos >= w.scanNT {
		return w.ones
	}
	return w.pm.Mask(w.scanText[textPos])
}

// The four traceback queries below report whether an edge bitvector at
// (textPos, level) has a 0 at bit j — a 0 meaning the edge lies on a valid
// alignment path. Each edge is re-derived from the stored R entries
// (SENE), using the recurrence the DC scan used to build them: with
// oldR = the entries of textPos+1,
//
//	deletion     = oldR[level-1]
//	substitution = oldR[level-1] << 1
//	insertion    = R[level-1] << 1
//	match        = (oldR[level] << 1) | PM[text[textPos]]
//
// Bit 0 of any shifted vector is 0 (the shifted-in zero: the final pattern
// character can always be substituted/inserted). The generic walker calls
// them; the single-word walker inlines the same derivations.

// matchZero reports whether the match bitvector at (textPos, level) has a
// 0 at bit j.
func (w *Workspace) matchZero(textPos, level, j int) bool {
	if !bitvec.IsZeroBit(w.pmAt(textPos), j) {
		return false
	}
	return j == 0 || bitvec.IsZeroBit(w.rEntry(textPos+1, level), j-1)
}

// insZero reports whether the insertion bitvector has a 0 at bit j.
// Level must be >= 1.
func (w *Workspace) insZero(textPos, level, j int) bool {
	return j == 0 || bitvec.IsZeroBit(w.rEntry(textPos, level-1), j-1)
}

// delZero reports whether the deletion bitvector has a 0 at bit j.
// Level must be >= 1.
func (w *Workspace) delZero(textPos, level, j int) bool {
	return bitvec.IsZeroBit(w.rEntry(textPos+1, level-1), j)
}

// subZero reports whether the substitution bitvector (deletion<<1) has a
// 0 at bit j. Level must be >= 1.
func (w *Workspace) subZero(textPos, level, j int) bool {
	return j == 0 || bitvec.IsZeroBit(w.rEntry(textPos+1, level-1), j-1)
}

// FootprintBytes reports the workspace's allocated scratch memory — the
// software analogue of the accelerator's DC-SRAM + TB-SRAM budget. The
// single R entry store is ~3x below the paper's three per-edge stores.
func (w *Workspace) FootprintBytes() int {
	words := len(w.rStore) + len(w.ones) + len(w.scanPM)
	for _, m := range w.pm.Masks {
		words += len(m)
	}
	return words * 8
}
