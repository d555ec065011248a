package cubeserver

// wire.go is the v2 wire protocol: length-prefixed little-endian
// binary framing with a hand-rolled codec for Request and Response.
// The v1 protocol (one gob stream per connection) spends most of its
// time in reflection and per-value encoding; v2 writes bulk []float64
// and [][]float32 payloads as raw contiguous byte blocks into pooled
// buffers, with no reflection and no steady-state allocation on the
// framing path. On a little-endian host, whose memory order is the
// wire's, each block crosses the codec in one copy through a byte view
// of the float slice; a big-endian host converts element by element
// (putF32sLoop and friends, which the tests also use as the oracle).
//
// Frame layout (all integers little-endian):
//
//	offset 0  u32  payload length N (bytes after this field)
//	offset 4  u8   frame type (1 = request, 2 = response)
//	offset 5  u64  request ID (echoed verbatim in the response frame)
//	offset 13 ...  body (codec below), N-9 bytes
//
// Every frame carries a request ID, so N requests can be in flight on
// one connection at once: the mux client (mux.go) pipelines them and
// the server answers in completion order. A v2 session is opened by
// the 4-byte magic {0x00,'C','W','2'}; 0x00 can never begin a gob
// stream (gob's leading byte-count uvarint is nonzero), which is what
// makes the server's codec sniff unambiguous (see negotiation in
// cubeserver.go).
//
// The decoder is fuzz-hardened: every length field is validated
// against the bytes actually remaining in the frame before any
// allocation, so truncated, garbage or adversarial frames produce an
// error, never a panic or an outsized allocation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/datacube"
)

// wireMagic opens a v2 session. The leading 0x00 is unreachable as the
// first byte of a gob stream, so a server can sniff the codec from one
// byte.
var wireMagic = [4]byte{0x00, 'C', 'W', '2'}

const (
	frameRequest  byte = 1
	frameResponse byte = 2

	// frameMetaLen is the frame-type byte plus the request ID.
	frameMetaLen = 1 + 8

	// maxFrameBytes bounds a single frame (1 GiB). Anything larger is
	// protocol garbage: the guard keeps a corrupt length field from
	// turning into a giant allocation.
	maxFrameBytes = 1 << 30
)

var (
	errFrameTruncated = errors.New("cubeserver: truncated v2 frame")
	errFrameOversized = errors.New("cubeserver: v2 frame exceeds size limit")
)

// frameBufPool recycles encode/decode scratch across requests. Buffers
// above 64 MiB are dropped rather than pooled so one giant export does
// not pin its buffer forever.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() []byte { return (*frameBufPool.Get().(*[]byte))[:0] }

func putBuf(b []byte) {
	if cap(b) > 64<<20 {
		return
	}
	frameBufPool.Put(&b)
}

// grow extends b by n bytes and returns the extended slice; the new
// bytes are uninitialized and must be overwritten by the caller.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, max(2*cap(b), len(b)+n))
	copy(nb, b)
	return nb
}

// ── append-style encoders ────────────────────────────────────────────

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendInt(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendU32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

// ── float blocks ─────────────────────────────────────────────────────

// nativeLE reports whether this host lays numbers out little-endian,
// as the wire does: then a float block and its encoding are the same
// bytes.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes and f64Bytes view a float slice's memory as bytes.
func f32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// putF32s encodes v into dst[:4*len(v)].
func putF32s(dst []byte, v []float32) {
	if nativeLE {
		copy(dst, f32Bytes(v))
		return
	}
	putF32sLoop(dst, v)
}

func putF32sLoop(dst []byte, v []float32) {
	for i, f := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

// getF32s decodes src[:4*len(dst)] into dst.
func getF32s(dst []float32, src []byte) {
	if nativeLE {
		copy(f32Bytes(dst), src)
		return
	}
	getF32sLoop(dst, src)
}

func getF32sLoop(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// putF64s encodes v into dst[:8*len(v)].
func putF64s(dst []byte, v []float64) {
	if nativeLE {
		copy(dst, f64Bytes(v))
		return
	}
	putF64sLoop(dst, v)
}

func putF64sLoop(dst []byte, v []float64) {
	for i, f := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// getF64s decodes src[:8*len(dst)] into dst.
func getF64s(dst []float64, src []byte) {
	if nativeLE {
		copy(f64Bytes(dst), src)
		return
	}
	getF64sLoop(dst, src)
}

func getF64sLoop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// appendF64s writes the slice as one raw contiguous block — the
// path the bulk partials travel on.
func appendF64s(b []byte, v []float64) []byte {
	b = appendU32(b, uint32(len(v)))
	off := len(b)
	b = grow(b, 8*len(v))
	putF64s(b[off:], v)
	return b
}

// appendF32Row writes one row of cube data as a raw block.
func appendF32Row(b []byte, row []float32) []byte {
	b = appendU32(b, uint32(len(row)))
	off := len(b)
	b = grow(b, 4*len(row))
	putF32s(b[off:], row)
	return b
}

// appendRows reserves the whole row block's exact size once, so a
// bulk payload never regrows the buffer row by row.
func appendRows(b []byte, rows [][]float32) []byte {
	n := 4
	for _, row := range rows {
		n += 4 + 4*len(row)
	}
	b = appendU32(slices.Grow(b, n), uint32(len(rows)))
	for _, row := range rows {
		b = appendF32Row(b, row)
	}
	return b
}

func appendDims(b []byte, dims []datacube.Dimension) []byte {
	b = appendU32(b, uint32(len(dims)))
	for _, d := range dims {
		b = appendStr(b, d.Name)
		b = appendInt(b, d.Size)
	}
	return b
}

// ── bounds-checked decoder ───────────────────────────────────────────

// wireDec walks a frame body; the first failed read latches err and
// every later read returns zero values, so call sites stay linear.
type wireDec struct {
	b   []byte
	off int
	err error
}

func (d *wireDec) fail() {
	if d.err == nil {
		d.err = errFrameTruncated
	}
}

func (d *wireDec) remaining() int { return len(d.b) - d.off }

func (d *wireDec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *wireDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *wireDec) int() int { return int(int64(d.u64())) }

func (d *wireDec) i64() int64 { return int64(d.u64()) }

func (d *wireDec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 {
		d.fail()
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 { // would re-encode as 0x01: not a byte this codec writes
		d.fail()
		return false
	}
	return v == 1
}

func (d *wireDec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *wireDec) str() string {
	n := int(d.u32())
	if d.err != nil {
		return ""
	}
	if n < 0 || n > d.remaining() {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// count reads a u32 element count and validates it against the bytes
// remaining at minBytes per element, so a corrupt count can never
// drive an outsized allocation.
func (d *wireDec) count(minBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || (minBytes > 0 && n > d.remaining()/minBytes) {
		d.fail()
		return 0
	}
	return n
}

func (d *wireDec) strs() []string {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *wireDec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	getF64s(out, d.b[d.off:])
	d.off += 8 * n
	return out
}

func (d *wireDec) rows() [][]float32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	// Pre-scan the row headers to size one contiguous backing block, so
	// a bulk payload costs two allocations instead of one per row.
	total, off := 0, d.off
	for i := 0; i < n; i++ {
		if len(d.b)-off < 4 {
			d.fail()
			return nil
		}
		c := int(binary.LittleEndian.Uint32(d.b[off:]))
		off += 4
		if c > (len(d.b)-off)/4 {
			d.fail()
			return nil
		}
		off += 4 * c
		total += c
	}
	backing := make([]float32, total)
	out := make([][]float32, n)
	used := 0
	for i := range out {
		c := int(binary.LittleEndian.Uint32(d.b[d.off:]))
		d.off += 4
		if c == 0 {
			continue // zero-length rows decode nil, matching the gob stream
		}
		row := backing[used : used+c : used+c]
		used += c
		getF32s(row, d.b[d.off:])
		d.off += 4 * c
		out[i] = row
	}
	return out
}

func (d *wireDec) dims() []datacube.Dimension {
	n := d.count(12)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]datacube.Dimension, n)
	for i := range out {
		out[i].Name = d.str()
		out[i].Size = d.int()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// ── Request codec ────────────────────────────────────────────────────

// AppendRequestV2 appends the v2 body encoding of req to b and returns
// the extended slice. Exported (with DecodeRequestV2 and the Response
// pair) for the root wire-codec benchmark; everything inside the
// package goes through frames.
func AppendRequestV2(b []byte, req *Request) []byte {
	b = appendStr(b, req.Op)
	b = appendStr(b, req.CubeID)
	b = appendStr(b, req.OtherID)
	b = appendStr(b, req.Var)
	b = appendStr(b, req.ImplicitDim)
	b = appendStr(b, req.Expr)
	b = appendStr(b, req.RowOp)
	b = appendStr(b, req.Key)
	b = appendStr(b, req.Value)
	b = appendStr(b, req.Path)
	b = appendInt(b, req.Group)
	b = appendInt(b, req.Lo)
	b = appendInt(b, req.Hi)
	b = appendInt(b, req.Row)
	b = appendInt(b, req.Shard)
	b = appendInt(b, req.Shards)
	b = appendF64s(b, req.Params)
	b = appendStrs(b, req.Paths)
	b = appendRows(b, req.Values)
	b = appendDims(b, req.Dims)
	b = appendU32(b, uint32(len(req.Pipeline)))
	for i := range req.Pipeline {
		st := &req.Pipeline[i]
		b = appendStr(b, st.Op)
		b = appendStr(b, st.Expr)
		b = appendStr(b, st.RowOp)
		b = appendStr(b, st.OtherID)
		b = appendF64s(b, st.Params)
		b = appendInt(b, st.Group)
		b = appendInt(b, st.Lo)
		b = appendInt(b, st.Hi)
		b = appendBool(b, st.Keep)
		b = appendF64(b, st.Tolerance)
	}
	return b
}

// DecodeRequestV2 decodes a v2 request body into req. All slices are
// freshly allocated (never aliased into b or recycled), so a
// dispatcher may retain them — the residency dispatcher keeps requests
// as rebuild recipes — while the caller pools both b and req.
func DecodeRequestV2(b []byte, req *Request) error {
	d := &wireDec{b: b}
	req.Op = d.str()
	req.CubeID = d.str()
	req.OtherID = d.str()
	req.Var = d.str()
	req.ImplicitDim = d.str()
	req.Expr = d.str()
	req.RowOp = d.str()
	req.Key = d.str()
	req.Value = d.str()
	req.Path = d.str()
	req.Group = d.int()
	req.Lo = d.int()
	req.Hi = d.int()
	req.Row = d.int()
	req.Shard = d.int()
	req.Shards = d.int()
	req.Params = d.f64s()
	req.Paths = d.strs()
	req.Values = d.rows()
	req.Dims = d.dims()
	req.Pipeline = nil
	n := d.count(47) // min encoded PipelineStep: 4 strings + params count + 3 ints + bool + tolerance
	if d.err == nil && n > 0 {
		req.Pipeline = make([]PipelineStep, n)
		for i := range req.Pipeline {
			st := &req.Pipeline[i]
			st.Op = d.str()
			st.Expr = d.str()
			st.RowOp = d.str()
			st.OtherID = d.str()
			st.Params = d.f64s()
			st.Group = d.int()
			st.Lo = d.int()
			st.Hi = d.int()
			st.Keep = d.bool()
			st.Tolerance = d.f64()
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("cubeserver: %d trailing bytes after v2 request", d.remaining())
	}
	return nil
}

// ── Response codec ───────────────────────────────────────────────────

// AppendResponseV2 appends the v2 body encoding of resp to b.
func AppendResponseV2(b []byte, resp *Response) []byte {
	b = appendStr(b, resp.Err)
	b = appendStr(b, resp.ErrCode)
	b = appendStr(b, resp.Value)
	b = appendF64(b, resp.Scalar)
	b = appendBool(b, resp.Found)
	b = appendI64(b, resp.ResidentTotal)
	b = appendI64(b, resp.Stats.FileReads)
	b = appendI64(b, resp.Stats.CellsProcessed)
	b = appendI64(b, resp.Stats.Ops)
	b = appendI64(b, resp.Stats.FragmentTasks)
	b = appendStr(b, resp.Shape.CubeID)
	b = appendStr(b, resp.Shape.Measure)
	b = appendStr(b, resp.Shape.ImplicitName)
	b = appendInt(b, resp.Shape.Rows)
	b = appendInt(b, resp.Shape.ImplicitLen)
	b = appendInt(b, resp.Shape.Fragments)
	b = appendDims(b, resp.Shape.ExplicitDims)
	b = appendF64s(b, resp.Partials)
	b = appendStrs(b, resp.IDs)
	b = appendRows(b, resp.Values)
	// Maps carry a presence byte: gob transmits an empty non-nil map but
	// omits a nil one, and the decoder mirrors that distinction.
	b = appendBool(b, resp.Resident != nil)
	if resp.Resident != nil {
		b = appendU32(b, uint32(len(resp.Resident)))
		for id, bytes := range resp.Resident {
			b = appendStr(b, id)
			b = appendI64(b, bytes)
		}
	}
	return b
}

// DecodeResponseV2 decodes a v2 response body into resp. Mirroring
// gob's omitted-zero-value semantics, empty slices and maps decode as
// nil, so responses round-trip reflect.DeepEqual across either codec.
func DecodeResponseV2(b []byte, resp *Response) error {
	d := &wireDec{b: b}
	resp.Err = d.str()
	resp.ErrCode = d.str()
	resp.Value = d.str()
	resp.Scalar = d.f64()
	resp.Found = d.bool()
	resp.ResidentTotal = d.i64()
	resp.Stats.FileReads = d.i64()
	resp.Stats.CellsProcessed = d.i64()
	resp.Stats.Ops = d.i64()
	resp.Stats.FragmentTasks = d.i64()
	resp.Shape.CubeID = d.str()
	resp.Shape.Measure = d.str()
	resp.Shape.ImplicitName = d.str()
	resp.Shape.Rows = d.int()
	resp.Shape.ImplicitLen = d.int()
	resp.Shape.Fragments = d.int()
	resp.Shape.ExplicitDims = d.dims()
	resp.Partials = d.f64s()
	resp.IDs = d.strs()
	resp.Values = d.rows()
	resp.Resident = nil
	if d.bool() {
		n := d.count(12)
		if d.err == nil {
			resp.Resident = make(map[string]int64, n)
			for i := 0; i < n; i++ {
				id := d.str()
				bytes := d.i64()
				if d.err != nil {
					resp.Resident = nil
					break
				}
				resp.Resident[id] = bytes
			}
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("cubeserver: %d trailing bytes after v2 response", d.remaining())
	}
	return nil
}

// ── framing ──────────────────────────────────────────────────────────

// beginFrame resets b to a frame header (length placeholder, type,
// request ID); the caller appends the body and calls finishFrame.
func beginFrame(b []byte, ftype byte, id uint64) []byte {
	b = append(b[:0], 0, 0, 0, 0, ftype)
	return appendU64(b, id)
}

// finishFrame patches the length prefix once the body is in place.
func finishFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// encodeRequestFrame builds a complete request frame in buf.
func encodeRequestFrame(buf []byte, id uint64, req *Request) []byte {
	return finishFrame(AppendRequestV2(beginFrame(buf, frameRequest, id), req))
}

// encodeResponseFrame builds a complete response frame in buf.
func encodeResponseFrame(buf []byte, id uint64, resp *Response) []byte {
	return finishFrame(AppendResponseV2(beginFrame(buf, frameResponse, id), resp))
}

// readFrame reads one frame from r into a pooled buffer, returning the
// frame type, request ID and body (valid until putBuf(frame)). consumed
// reports whether any bytes were read before the error — a deadline
// that fires with consumed=false left the stream intact, so an idle
// server loop may safely retry the read.
func readFrame(r interface{ Read([]byte) (int, error) }) (ftype byte, id uint64, frame, body []byte, consumed bool, err error) {
	var hdr [4]byte
	n, err := readFull(r, hdr[:])
	if err != nil {
		return 0, 0, nil, nil, n > 0, err
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if size < frameMetaLen {
		return 0, 0, nil, nil, true, errFrameTruncated
	}
	if size > maxFrameBytes {
		return 0, 0, nil, nil, true, errFrameOversized
	}
	// Grow the buffer as bytes actually arrive (1 MiB steps) instead of
	// trusting the header: a peer claiming a huge frame and sending
	// nothing costs one chunk, not a gigabyte.
	frame = getBuf()
	for remaining := int(size); remaining > 0; {
		chunk := min(remaining, 1<<20)
		off := len(frame)
		frame = grow(frame, chunk)
		if _, err := readFull(r, frame[off:]); err != nil {
			putBuf(frame)
			return 0, 0, nil, nil, true, err
		}
		remaining -= chunk
	}
	return frame[0], binary.LittleEndian.Uint64(frame[1:]), frame, frame[frameMetaLen:], true, nil
}

// readFull is io.ReadFull without the io.EOF→ErrUnexpectedEOF
// remapping on the first byte, so a clean hangup between frames stays
// distinguishable from a torn frame.
func readFull(r interface{ Read([]byte) (int, error) }, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
