// The race detector instruments allocations, so this file only builds
// without it.

//go:build !race

package sam

import (
	"io"
	"testing"
)

// TestWriteRecordAllocFree pins the output path's steady state: once the
// line buffer has grown to the longest record, writing records allocates
// nothing.
func TestWriteRecordAllocFree(t *testing.T) {
	recs := oracleRecords()
	w := NewWriter(io.Discard)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range recs {
			if err := w.WriteRecord(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("WriteRecord allocs per %d records = %.1f, want 0", len(recs), allocs)
	}
}
