package cubeserver

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datacube"
)

// These tests pin the float blocks of the v2 codec: the bulk copy a
// little-endian host takes must write and read exactly the bytes and
// bits of the per-element loop a big-endian host takes, and the values
// path must not copy its payload more than the codec needs to.

// wireF32Specials are float32 bit patterns a byte-order slip or a
// round trip through a float register could alter: quiet and
// signalling NaNs of both signs with payloads, signed zeros and
// infinities, subnormals at both ends, and the finite extremes.
var wireF32Specials = []uint32{
	0x7fc00000, 0x7fc12345, 0xffc00001, // quiet NaNs
	0x7f800001, 0x7fa00000, 0xff800123, // signalling NaNs
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // subnormals
	0x00800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±max finite
}

var wireF64Specials = []uint64{
	0x7ff8000000000000, 0x7ff8000000000123, 0xfff8000000000001, // quiet NaNs
	0x7ff0000000000001, 0x7ff4000000000000, 0xfff0000000000abc, // signalling NaNs
	0x0000000000000000, 0x8000000000000000, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x0000000000000001, 0x000fffffffffffff, 0x8000000000000001, // subnormals
	0x0010000000000000, 0x7fefffffffffffff, 0xffefffffffffffff, // smallest normal, ±max finite
}

func f32sOf(bits []uint32) []float32 {
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

func f64sOf(bits []uint64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// specialRows cuts the special values into rows of length 0, 1 and
// odd lengths, so no block is a multiple of a vector width.
func specialRows() [][]float32 {
	all := f32sOf(wireF32Specials)
	var rows [][]float32
	for _, n := range []int{0, 1, 3, 0, 7, len(all)} {
		rows = append(rows, all[:n])
	}
	return rows
}

// randomBlocks draws a ragged payload of random bit patterns (NaNs
// included, at their natural rate) with the special values laced in.
func randomBlocks(rng *rand.Rand) ([][]float32, []float64) {
	rows := make([][]float32, rng.Intn(12))
	for i := range rows {
		rows[i] = make([]float32, rng.Intn(41))
		for j := range rows[i] {
			b := rng.Uint32()
			if rng.Intn(4) == 0 {
				b = wireF32Specials[rng.Intn(len(wireF32Specials))]
			}
			rows[i][j] = math.Float32frombits(b)
		}
	}
	partials := make([]float64, rng.Intn(23))
	for i := range partials {
		b := rng.Uint64()
		if rng.Intn(4) == 0 {
			b = wireF64Specials[rng.Intn(len(wireF64Specials))]
		}
		partials[i] = math.Float64frombits(b)
	}
	return rows, partials
}

// loopResponseBody is the oracle for AppendResponseV2 of a response
// carrying only rows and partials: the same body, with both blocks
// written by the per-element loops.
func loopResponseBody(rows [][]float32, partials []float64) []byte {
	b := AppendResponseV2(nil, &Response{})
	// An empty body ends in the Partials, IDs and Values counts and the
	// Resident presence byte.
	b = b[:len(b)-13]
	b = appendU32(b, uint32(len(partials)))
	off := len(b)
	b = grow(b, 8*len(partials))
	putF64sLoop(b[off:], partials)
	b = appendU32(b, 0)
	b = appendU32(b, uint32(len(rows)))
	for _, row := range rows {
		b = appendU32(b, uint32(len(row)))
		off := len(b)
		b = grow(b, 4*len(row))
		putF32sLoop(b[off:], row)
	}
	return append(b, 0)
}

func sameF32Bits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameF64Bits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBulkMatchesLoop encodes rows and partials through the codec and
// through the loop oracle, then decodes the frame both ways.
func checkBulkMatchesLoop(t *testing.T, rows [][]float32, partials []float64) {
	t.Helper()
	body := AppendResponseV2(nil, &Response{Values: rows, Partials: partials})
	if want := loopResponseBody(rows, partials); !bytes.Equal(body, want) {
		t.Fatalf("bulk body differs from the loop body:\nbulk %x\nloop %x", body, want)
	}
	var got Response
	if err := DecodeResponseV2(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(rows) {
		t.Fatalf("decoded %d rows, sent %d", len(got.Values), len(rows))
	}
	for i, row := range rows {
		if !sameF32Bits(got.Values[i], row) {
			t.Fatalf("row %d decoded %v, sent %v", i, got.Values[i], row)
		}
		enc := make([]byte, 4*len(row))
		putF32sLoop(enc, row)
		viaLoop := make([]float32, len(row))
		getF32sLoop(viaLoop, enc)
		if !sameF32Bits(viaLoop, got.Values[i]) {
			t.Fatalf("row %d: loop decode %v, bulk decode %v", i, viaLoop, got.Values[i])
		}
	}
	if !sameF64Bits(got.Partials, partials) {
		t.Fatalf("partials decoded %v, sent %v", got.Partials, partials)
	}
	enc := make([]byte, 8*len(partials))
	putF64sLoop(enc, partials)
	viaLoop := make([]float64, len(partials))
	getF64sLoop(viaLoop, enc)
	if !sameF64Bits(viaLoop, partials) {
		t.Fatalf("loop decode of partials %v, sent %v", viaLoop, partials)
	}
}

// TestWireBulkMatchesLoop holds the bulk copy to the per-element loop
// byte for byte on encode and bit for bit on decode.
func TestWireBulkMatchesLoop(t *testing.T) {
	t.Run("specials", func(t *testing.T) {
		all := f64sOf(wireF64Specials)
		for _, n := range []int{0, 1, 3, len(all)} {
			checkBulkMatchesLoop(t, specialRows(), all[:n])
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 500; i++ {
			rows, partials := randomBlocks(rng)
			checkBulkMatchesLoop(t, rows, partials)
		}
	})
}

// allocBytesPerRun is the heap allocated by one run of f, averaged.
func allocBytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestValuesAllocPerPayloadByte is the values row of the cost
// counters. A shard answers values with views of its fragments and
// encodes them into a reused buffer, so what it allocates is the row
// headers and the response: at most 0.1 B per payload byte at width
// ≥ 64, where copying the cube first would cost at least 1. A decode
// allocates the payload once plus its row headers: at most 1.1 B.
func TestValuesAllocPerPayloadByte(t *testing.T) {
	const encodeBudget, decodeBudget = 0.1, 1.1
	const rows = 4096
	e := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
	defer e.Close()
	disp := EngineDispatcher(e)
	for _, width := range []int{64, 360} {
		c, err := e.NewCubeFromFunc("T", []datacube.Dimension{{Name: "cell", Size: rows}},
			datacube.Dimension{Name: "time", Size: width},
			func(r, t int) float32 { return float32(r*width + t) })
		if err != nil {
			t.Fatal(err)
		}
		payload := float64(4 * rows * width)
		req := &Request{Op: "values", CubeID: c.ID()}
		buf := AppendResponseV2(nil, disp.Dispatch(req))
		encB := allocBytesPerRun(8, func() {
			buf = AppendResponseV2(buf[:0], disp.Dispatch(req))
		}) / payload
		var resp Response
		decB := allocBytesPerRun(8, func() {
			if err := DecodeResponseV2(buf, &resp); err != nil {
				t.Fatal(err)
			}
		}) / payload
		t.Logf("width %d: dispatch+encode %.4f B, decode %.4f B per payload byte", width, encB, decB)
		if encB > encodeBudget {
			t.Errorf("width %d: values dispatch+encode allocates %.4f B per payload byte, budget %.1f", width, encB, encodeBudget)
		}
		if decB > decodeBudget {
			t.Errorf("width %d: values decode allocates %.4f B per payload byte, budget %.1f", width, decB, decodeBudget)
		}
		last, err := c.Row(rows - 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameF32Bits(resp.Values[rows-1], last) {
			t.Fatalf("width %d: last row decoded %v, want %v", width, resp.Values[rows-1], last)
		}
		if err := c.Delete(); err != nil {
			t.Fatal(err)
		}
	}
}
