package core

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// FuzzAppendDecimal holds the digest line's decimal appenders to
// strconv, byte for byte, on any uint64 and its int64 reading: a digit
// the renderer gets wrong would move every packets digest.
func FuzzAppendDecimal(f *testing.F) {
	for _, u := range []uint64{
		0, 9, 10, 99, 100, 1e8 - 1, 1e8, 1e8 + 1, 1e16,
		1 << 63, // math.MinInt64 as an int64
		math.MaxInt64, math.MaxUint64,
	} {
		f.Add(u)
	}
	// Every digit-count boundary, where decimalLen's estimate turns.
	for _, p := range pow10[1:] {
		f.Add(p - 1)
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		if got, want := appendUint([]byte("x="), u), strconv.AppendUint([]byte("x="), u, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %q, want %q", u, got, want)
		}
		i := int64(u)
		if got, want := appendInt([]byte("x="), i), strconv.AppendInt([]byte("x="), i, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%d) = %q, want %q", i, got, want)
		}
	})
}

// TestViewHasherAddNoAllocs: once its line buffer has held the longest
// line, folding a view into the digest allocates nothing.
func TestViewHasherAddNoAllocs(t *testing.T) {
	pkts := Correlate(synthInput(2000, 4, 7)).Packets
	vh := NewViewHasher()
	for _, v := range pkts {
		vh.Add(v)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(pkts), func() {
		vh.Add(pkts[i%len(pkts)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("ViewHasher.Add allocates %.2f objects/op, want 0", allocs)
	}
	if vh.Count() <= len(pkts) {
		t.Fatal("the measured Adds folded nothing")
	}
}
