package ncdf

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzReadSeeds returns FuzzRead's seeds: a valid file, its
// truncations, a few degenerate inputs, and the entries of FuzzRead's
// committed corpus.
func fuzzReadSeeds(tb testing.TB) [][]byte {
	ds := NewDataset()
	_ = ds.AddDim("lat", 2)
	_ = ds.AddDim("lon", 3)
	ds.Attrs["model"] = String("seed")
	ds.Attrs["year"] = Int(2040)
	ds.Attrs["res"] = Float(0.25)
	_, _ = ds.AddVar("T", []string{"lat", "lon"}, []float32{1, 2, 3, 4, 5, 6})
	_, _ = ds.AddVar("P", []string{"lon"}, []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1))})
	var buf bytes.Buffer
	_ = ds.Write(&buf)
	b := buf.Bytes()
	seeds := [][]byte{b, []byte("GNC1"), []byte("GNC1\x00\x00\x00\x00"), []byte("XXXX"), {}}
	for _, cut := range []int{4, 8, 12, 20, len(b) - 16, len(b) - 4} {
		if cut > 0 && cut < len(b) {
			seeds = append(seeds, b[:cut])
		}
	}
	corpus, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRead", "*"))
	for _, p := range corpus {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		q := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(q)
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzRead hardens the file decoder: arbitrary bytes must produce an
// error or a dataset — never a panic or a runaway allocation.
func FuzzRead(f *testing.F) {
	for _, s := range fuzzReadSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// a decoded dataset must be internally consistent
		for _, v := range got.Vars {
			if _, err := got.Shape(v); err != nil {
				// dims may legitimately be missing in crafted input; Shape
				// must error, not panic
				continue
			}
		}
	})
}

// FuzzReadVarRange hardens the range reader: over arbitrary bytes and
// an arbitrary value range, File either refuses or returns exactly that
// range of a full Read, bit for bit, and never declares more values
// than the source can hold — so nothing sized from it can be larger
// than the file.
func FuzzReadVarRange(f *testing.F) {
	for _, s := range fuzzReadSeeds(f) {
		f.Add(s, 0, 0, 6)
		f.Add(s, 1, 1, 3)
		f.Add(s, 0, 4, 2)
	}
	f.Fuzz(func(t *testing.T, data []byte, v, lo, hi int) {
		file, err := newFile(bytes.NewReader(data), int64(len(data)))
		full, rerr := Read(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("newFile err = %v, Read err = %v", err, rerr)
		}
		if err != nil {
			return
		}
		for i, n := range file.n {
			if 4*int64(n) > int64(len(data)) {
				t.Fatalf("variable %q declares %d values in a %d-byte source", file.Header.Vars[i].Name, n, len(data))
			}
		}
		if len(file.Header.Vars) == 0 {
			return
		}
		v = int(uint(v) % uint(len(file.Header.Vars)))
		want := full.Vars[v].Data
		if lo < 0 || hi < lo || hi > len(want) {
			// a range reaching past either end is refused, never served
			n := min(max(hi-lo, 0), len(want)+1)
			if lo < 0 || lo > len(want)-n {
				if err := file.ReadRange(v, lo, make([]float32, n)); err == nil {
					t.Fatalf("range [%d,+%d) of %d values served", lo, n, len(want))
				}
			}
			lo = min(max(lo, 0), len(want))
			hi = min(max(hi, lo), len(want))
		}
		got := make([]float32, hi-lo)
		if err := file.ReadRange(v, lo, got); err != nil {
			t.Fatalf("range [%d,%d) of %d values: %v", lo, hi, len(want), err)
		}
		for k := range got {
			if math.Float32bits(got[k]) != math.Float32bits(want[lo+k]) {
				t.Fatalf("value %d of [%d,%d) = %x, want %x", k, lo, hi, math.Float32bits(got[k]), math.Float32bits(want[lo+k]))
			}
		}
	})
}
