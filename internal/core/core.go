// Package core implements the GenASM algorithms — the paper's primary
// contribution:
//
//   - GenASM-DC (Section 5): the modified Bitap algorithm with multi-word
//     bitvectors (long-read support) computing per-iteration intermediate
//     match/insertion/deletion bitvectors and the minimum edit distance;
//   - GenASM-TB (Section 6): the first Bitap-compatible traceback, which
//     walks a chain of 0s through the stored bitvectors from MSB to LSB,
//     emitting the CIGAR of the optimal alignment;
//   - the divide-and-conquer window scheme (Section 6) that bounds the
//     memory footprint to W×3×W×W bits per window (substitution bitvectors
//     are re-derived as deletion<<1 instead of being stored).
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

// Kernel selects the DC/TB storage layout and inner loop of a workspace.
//
// Both kernels compute the same alignments — they are differentially
// tested to produce identical distances and CIGARs — but differ in what
// the DC phase stores for the traceback, and therefore in memory footprint
// and store traffic.
type Kernel int

const (
	// KernelScrooge (the default) applies SENE from Scrooge (Lindegger et
	// al.): it stores one bitvector per (error level, text position)
	// entry — the R status vector itself — instead of the three per-edge
	// vectors, re-deriving the match/substitution/insertion/deletion edges
	// on demand during traceback. That cuts the stored TB memory ~3x and
	// removes three of the four stores per inner-loop step. Its DC scan
	// runs level-major: each error level is computed across the whole
	// window from the level below, and the adaptive scan stops at the
	// first level that matches, so it computes exactly the window
	// distance's levels.
	KernelScrooge Kernel = iota
	// KernelBaseline is the paper's original TB-SRAM layout: the three
	// intermediate per-edge bitvectors (match, insertion, deletion) are
	// stored for every entry and substitution is re-derived as
	// deletion<<1 (Section 6's storage optimization). The public API
	// always runs KernelScrooge; this layout is the differential-test
	// oracle and the paper benchmark.
	KernelBaseline
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelScrooge:
		return "scrooge"
	case KernelBaseline:
		return "baseline"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

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
	// MaxWindowErrors caps the number of R-bitvector levels (k) computed
	// per window. Defaults to WindowSize, which can never be exceeded by
	// a window-local alignment; smaller values trade fidelity for speed
	// and cause ErrWindowBudget when exceeded.
	MaxWindowErrors int
	// Adaptive enables the software optimization of computing only as
	// many error levels as the window needs: the Scrooge kernel stops its
	// level-major scan at the window's distance; the baseline kernel
	// starts at 8 levels and rescans with doubled k on failure. The
	// hardware always computes all 64 levels; disable for
	// hardware-faithful operation counts. Defaults to true.
	Adaptive bool
	// NoAdaptive disables Adaptive when set (kept separate so the zero
	// Config enables the optimization).
	NoAdaptive bool
	// Order is the preferred traceback priority of the error cases (it is
	// tried first and wins ties during per-window order selection).
	Order Order
	// NoOrderSelection disables the per-window selection among the three
	// error orders, restoring the single fixed order of Algorithm 2 as
	// printed. Selection is on by default because a fixed greedy order
	// can mis-anchor subsequent windows on indel-heavy reads (see
	// tbSelect).
	NoOrderSelection bool
	// NoAffineExtend disables the insertion-extend/deletion-extend
	// priority checks (Algorithm 2 lines 13-16) that mimic the affine gap
	// model. The default (false) matches the paper.
	NoAffineExtend bool
	// FindFirstWindowStart runs the first window's DC in search mode: the
	// traceback starts at the minimum-distance matching location within
	// the window rather than at text position 0, skipping leading text
	// for free. This reproduces the paper's leading-deletion quirk
	// (Section 10.3, footnote 4) and suits read alignment where the
	// candidate region start is approximate.
	FindFirstWindowStart bool
	// Kernel selects the DC/TB storage layout. The zero value is
	// KernelScrooge (SENE, level-major scan); KernelBaseline restores the
	// paper's original per-edge stores.
	Kernel Kernel
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
	if c.MaxWindowErrors == 0 {
		c.MaxWindowErrors = c.WindowSize
	}
	c.Adaptive = !c.NoAdaptive
	return c
}

func (c Config) validate() error {
	if c.WindowSize < 2 {
		return fmt.Errorf("core: window size %d too small", c.WindowSize)
	}
	if c.Overlap < 0 || c.Overlap >= c.WindowSize {
		return fmt.Errorf("core: overlap %d must be in [0, W=%d)", c.Overlap, c.WindowSize)
	}
	if c.MaxWindowErrors < 1 || c.MaxWindowErrors > c.WindowSize {
		return fmt.Errorf("core: max window errors %d must be in [1, W=%d]", c.MaxWindowErrors, c.WindowSize)
	}
	if c.Kernel != KernelScrooge && c.Kernel != KernelBaseline {
		return fmt.Errorf("core: unknown kernel %d", int(c.Kernel))
	}
	return nil
}

// ErrWindowBudget is returned when a window's alignment needs more error
// levels than Config.MaxWindowErrors allows.
var ErrWindowBudget = errors.New("core: window exceeded error budget (raise MaxWindowErrors)")

// ErrDistanceBound is returned by AlignWithin when the alignment's
// distance exceeds the caller's bound. It is returned bare (never
// wrapped), so the rejection path allocates nothing.
var ErrDistanceBound = errors.New("core: alignment distance exceeds bound")

// Alignment is the result of a GenASM alignment.
type Alignment struct {
	// Cigar is the traceback output (Section 6), query-vs-text.
	//
	// Alignments produced by a Workspace view the workspace's CIGAR arena:
	// Cigar stays valid only until the next Align, AlignWithin,
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
	// only with FindFirstWindowStart).
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
	stride int // error levels per stored text position (maxK+1)
	npos   int // text positions per stored Scrooge level (2W+1)

	// ctx, when non-nil, is consulted once per DC window so a pathological
	// alignment cannot wedge a worker past its deadline (see SetContext).
	ctx context.Context

	pm alphabet.PatternMasks

	// R status rows, (maxK+1) x nw each (KernelBaseline only; the Scrooge
	// scan computes straight into rStore).
	r, oldR [][]uint64

	// Stored intermediate bitvectors, the TB-SRAM contents of
	// KernelBaseline: indexed [textPos*stride + level]*nw. mStore holds
	// levels 0..k, iStore and dStore levels 1..k (level 0 slots unused,
	// kept for simple indexing).
	mStore, iStore, dStore []uint64

	// rStore is KernelScrooge's single entry store (SENE): the R status
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
	// (all-ones for phantom padding), filled by the single-word Scrooge
	// scan's level 0 so the traceback's match queries are one array read.
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
// paper's default setup: DNA, W=64, O=24, k=W, affine-extend traceback.
func New(cfg Config) (*Workspace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &Workspace{cfg: cfg}
	w.nw = bitvec.Words(cfg.WindowSize)
	w.stride = cfg.MaxWindowErrors + 1
	switch cfg.Kernel {
	case KernelBaseline:
		w.r = newRows(w.stride, w.nw)
		w.oldR = newRows(w.stride, w.nw)
		// Stores cover up to 2W text positions: W real characters plus up
		// to W phantom end-padding iterations in the terminal window (see
		// dcWindow).
		storeWords := 2 * cfg.WindowSize * w.stride * w.nw
		w.mStore = make([]uint64, storeWords)
		w.iStore = make([]uint64, storeWords)
		w.dStore = make([]uint64, storeWords)
	default: // KernelScrooge
		// One stored bitvector per entry (SENE) over the same 2W text
		// positions, plus one position for the scan's initial all-ones
		// rows — a ~3x smaller footprint than the three per-edge stores.
		w.npos = 2*cfg.WindowSize + 1
		w.rStore = make([]uint64, w.stride*w.npos*w.nw)
		if w.nw == 1 {
			w.scanPM = make([]uint64, 2*cfg.WindowSize)
			// The traceback scratch at its bounds: a walk takes at most
			// one fork per error and makes at most two runs per error
			// plus one, so tbSelectFast never grows it.
			w.tbForks = make([]tbFork, 0, cfg.MaxWindowErrors)
			w.tbScratch.Grow(2*cfg.MaxWindowErrors + 1)
			w.tbReplay[0].Grow(2*cfg.MaxWindowErrors + 1)
			w.tbReplay[1].Grow(2*cfg.MaxWindowErrors + 1)
		}
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

func newRows(n, nw int) [][]uint64 {
	flat := make([]uint64, n*nw)
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = flat[i*nw : (i+1)*nw]
	}
	return rows
}

// store offset helpers ------------------------------------------------------

func (w *Workspace) off(textPos, level int) int {
	return (textPos*w.stride + level) * w.nw
}

func (w *Workspace) mRow(textPos, level int) []uint64 {
	o := w.off(textPos, level)
	return w.mStore[o : o+w.nw]
}

func (w *Workspace) iRow(textPos, level int) []uint64 {
	o := w.off(textPos, level)
	return w.iStore[o : o+w.nw]
}

func (w *Workspace) dRow(textPos, level int) []uint64 {
	o := w.off(textPos, level)
	return w.dStore[o : o+w.nw]
}

// rEntry returns KernelScrooge's stored R entry at (textPos, level).
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
// alignment path. KernelBaseline reads the edges from its per-edge stores;
// KernelScrooge re-derives each edge from the stored R entries (SENE),
// using the recurrence the DC scan used to build them: with oldR = the
// entries of textPos+1,
//
//	deletion     = oldR[level-1]
//	substitution = oldR[level-1] << 1
//	insertion    = R[level-1] << 1
//	match        = (oldR[level] << 1) | PM[text[textPos]]
//
// Bit 0 of any shifted vector is 0 (the shifted-in zero: the final pattern
// character can always be substituted/inserted).

// rWord is the single-word form of rEntry: the one status word of the
// stored entry at (textPos, level). Valid only when w.nw == 1 (W <= 64),
// where it keeps the traceback's per-step queries free of slice-header
// construction.
func (w *Workspace) rWord(textPos, level int) uint64 {
	return w.rStore[level*w.npos+textPos]
}

// pmWord is the single-word form of pmAt.
func (w *Workspace) pmWord(textPos int) uint64 {
	if textPos >= w.scanNT {
		return ^uint64(0)
	}
	return w.pm.MaskWord(w.scanText[textPos])
}

// matchZero reports whether the match bitvector at (textPos, level) has a
// 0 at bit j.
func (w *Workspace) matchZero(textPos, level, j int) bool {
	if w.cfg.Kernel == KernelBaseline {
		return bitvec.IsZeroBit(w.mRow(textPos, level), j)
	}
	if w.nw == 1 {
		if w.pmWord(textPos)>>uint(j)&1 != 0 {
			return false
		}
		return j == 0 || w.rWord(textPos+1, level)>>uint(j-1)&1 == 0
	}
	if !bitvec.IsZeroBit(w.pmAt(textPos), j) {
		return false
	}
	return j == 0 || bitvec.IsZeroBit(w.rEntry(textPos+1, level), j-1)
}

// insZero reports whether the insertion bitvector has a 0 at bit j.
// Level must be >= 1.
func (w *Workspace) insZero(textPos, level, j int) bool {
	if w.cfg.Kernel == KernelBaseline {
		return bitvec.IsZeroBit(w.iRow(textPos, level), j)
	}
	if w.nw == 1 {
		return j == 0 || w.rWord(textPos, level-1)>>uint(j-1)&1 == 0
	}
	return j == 0 || bitvec.IsZeroBit(w.rEntry(textPos, level-1), j-1)
}

// delZero reports whether the deletion bitvector has a 0 at bit j.
// Level must be >= 1.
func (w *Workspace) delZero(textPos, level, j int) bool {
	if w.cfg.Kernel == KernelBaseline {
		return bitvec.IsZeroBit(w.dRow(textPos, level), j)
	}
	if w.nw == 1 {
		return w.rWord(textPos+1, level-1)>>uint(j)&1 == 0
	}
	return bitvec.IsZeroBit(w.rEntry(textPos+1, level-1), j)
}

// subZero reports whether the substitution bitvector (derived as
// deletion<<1 in both kernels) has a 0 at bit j.
func (w *Workspace) subZero(textPos, level, j int) bool {
	if j == 0 {
		return true
	}
	if w.cfg.Kernel == KernelBaseline {
		return bitvec.IsZeroBit(w.dRow(textPos, level), j-1)
	}
	if w.nw == 1 {
		return w.rWord(textPos+1, level-1)>>uint(j-1)&1 == 0
	}
	return bitvec.IsZeroBit(w.rEntry(textPos+1, level-1), j-1)
}

// FootprintBytes reports the workspace's allocated scratch memory — the
// software analogue of the accelerator's DC-SRAM + TB-SRAM budget. The
// Scrooge kernel's footprint is ~3x below the baseline's.
func (w *Workspace) FootprintBytes() int {
	words := len(w.mStore) + len(w.iStore) + len(w.dStore) +
		len(w.rStore) + len(w.ones) + len(w.scanPM)
	for _, row := range w.r {
		words += len(row)
	}
	for _, row := range w.oldR {
		words += len(row)
	}
	for _, m := range w.pm.Masks {
		words += len(m)
	}
	return words * 8
}
