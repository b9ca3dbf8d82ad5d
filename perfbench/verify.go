package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// checker validates the SAM a batch comes back as, against the genome and
// the reads' ground truth. Any record the genome does not support is an
// error in the program's output; reads left unmapped or mapped elsewhere
// only lower recall, which run() holds to a floor per workload.
type checker struct {
	genome []byte
	// tolerance is how far, in bases, a mapping may start from the read's
	// true position and still count as on target.
	tolerance int
}

// tally counts the records of checked batches.
type tally struct {
	reads, mapped, onTarget int
}

// check validates one batch's SAM output and adds it to t.
func (c *checker) check(sam []byte, batch []read, t *tally) error {
	i := 0
	for _, line := range bytes.Split(sam, []byte("\n")) {
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		if i == len(batch) {
			return fmt.Errorf("more SAM records than the %d reads sent", len(batch))
		}
		if err := c.record(string(line), batch[i], t); err != nil {
			return fmt.Errorf("read %s: %w", batch[i].name, err)
		}
		i++
	}
	if i != len(batch) {
		return fmt.Errorf("%d SAM records for %d reads", i, len(batch))
	}
	return nil
}

func (c *checker) record(line string, r read, t *tally) error {
	f := strings.Split(line, "\t")
	if len(f) < 11 {
		return fmt.Errorf("SAM record has %d fields", len(f))
	}
	if f[0] != r.name || f[9] != string(r.seq) {
		return fmt.Errorf("SAM record %q/%q does not echo the read", f[0], f[9])
	}
	flag, err1 := strconv.Atoi(f[1])
	pos, err2 := strconv.Atoi(f[3])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("bad FLAG %q or POS %q", f[1], f[3])
	}
	t.reads++
	if flag&4 != 0 {
		return nil
	}
	nm := -1
	for _, tag := range f[11:] {
		if v, ok := strings.CutPrefix(tag, "NM:i:"); ok {
			nm, _ = strconv.Atoi(v)
		}
	}
	oriented := r.seq
	if flag&16 != 0 {
		oriented = revComp(r.seq)
	}
	edits, err := replay(f[5], oriented, c.genome, pos-1)
	if err != nil {
		return err
	}
	if edits != nm {
		return fmt.Errorf("CIGAR %s at %d has %d edits, NM says %d", f[5], pos, edits, nm)
	}
	t.mapped++
	if (flag&16 != 0) == r.rev && abs(pos-1-r.pos) <= c.tolerance {
		t.onTarget++
	}
	return nil
}

// replay walks a CIGAR over the query and the genome from start and
// returns its edit count: mismatched aligned bases plus inserted and
// deleted bases. The CIGAR must consume the whole query and stay inside
// the genome.
func replay(cigar string, query, genome []byte, start int) (int, error) {
	qi, gi, edits, n := 0, start, 0, 0
	if start < 0 {
		return 0, fmt.Errorf("POS %d outside the genome", start+1)
	}
	for _, ch := range []byte(cigar) {
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
			continue
		}
		switch ch {
		case 'M', '=', 'X':
			if qi+n > len(query) || gi+n > len(genome) {
				return 0, fmt.Errorf("CIGAR %s runs past the read or the genome", cigar)
			}
			for k := 0; k < n; k++ {
				if query[qi+k] != genome[gi+k] {
					edits++
				}
			}
			qi, gi = qi+n, gi+n
		case 'I':
			qi, edits = qi+n, edits+n
		case 'D':
			gi, edits = gi+n, edits+n
		default:
			return 0, fmt.Errorf("CIGAR %s has op %q", cigar, ch)
		}
		n = 0
	}
	if qi != len(query) || gi > len(genome) {
		return 0, fmt.Errorf("CIGAR %s covers %d of %d read bases", cigar, qi, len(query))
	}
	return edits, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
