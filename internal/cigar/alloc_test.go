// The race detector instruments allocations, so this file only builds
// without it.

//go:build !race

package cigar

import "testing"

// TestFormatOneAllocation pins Format's cost: one exactly sized
// allocation per string, short or long, in either mode, and none for
// AppendFormat into a buffer with room.
func TestFormatOneAllocation(t *testing.T) {
	var long Builder
	for i := range 2000 {
		long.Append(Op(i%4)+1, 1+i%150)
	}
	buf := make([]byte, 0, 1<<16)
	for _, c := range []Cigar{{{Len: 3, Op: OpMatch}, {Len: 1, Op: OpSubst}}, long.Cigar()} {
		for _, extended := range []bool{true, false} {
			if a := testing.AllocsPerRun(20, func() { _ = c.Format(extended) }); a != 1 {
				t.Errorf("%d runs, extended=%v: Format allocs = %.1f, want 1", len(c), extended, a)
			}
			if a := testing.AllocsPerRun(20, func() { buf = c.AppendFormat(buf[:0], extended) }); a != 0 {
				t.Errorf("%d runs, extended=%v: AppendFormat allocs = %.1f, want 0", len(c), extended, a)
			}
		}
	}
}
