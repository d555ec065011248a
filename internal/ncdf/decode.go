package ncdf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// chunkBytes bounds the one buffer a payload read goes through.
const chunkBytes = 256 << 10

var chunkPool = sync.Pool{New: func() any { b := make([]byte, chunkBytes); return &b }}

// hdrPool recycles the small buffered reader headers are parsed through.
var hdrPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// File is a GNC1 source opened for decoding, the one entry point every
// read goes through. Its header is parsed once, and the payload it
// declares is checked against the source's size before anything can be
// sized from it, so a corrupt header fails here instead of allocating.
// Payloads are then read by value range straight into caller-owned
// slices: a reader of some rows of one variable reads only their bytes.
// ReadRange is safe for concurrent use.
type File struct {
	// Header holds the dimensions, attributes and variable metadata;
	// its variables carry no Data.
	Header *Dataset
	r      io.ReaderAt
	c      io.Closer
	off    []int64 // byte offset of each variable's payload, in Header.Vars order
	n      []int   // declared value count of each variable
}

// Open opens path for decoding; Close releases it.
func Open(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	size, err := fh.Seek(0, io.SeekEnd)
	if err == nil {
		var f *File
		if f, err = newFile(fh, size); err == nil {
			f.c = fh
			return f, nil
		}
	}
	fh.Close()
	return nil, err
}

// newFile parses the header of the size-byte GNC1 source r.
func newFile(r io.ReaderAt, size int64) (*File, error) {
	br := hdrPool.Get().(*bufio.Reader)
	br.Reset(io.NewSectionReader(r, 0, size))
	h := hdrReader{r: br}
	ds, lens := h.header()
	br.Reset(nil)
	hdrPool.Put(br)
	if h.err != nil {
		return nil, h.err
	}
	f := &File{Header: ds, r: r, off: make([]int64, len(lens)), n: make([]int, len(lens))}
	pos := h.n
	for i, n := range lens {
		if n > uint64(size-pos)/4 {
			return nil, fmt.Errorf("ncdf: variable %q declares %d values, only %d payload bytes remain",
				ds.Vars[i].Name, n, size-pos)
		}
		f.off[i], f.n[i] = pos, int(n)
		pos += 4 * int64(n)
	}
	return f, nil
}

// Close releases the file Open opened.
func (f *File) Close() error {
	if f.c == nil {
		return nil
	}
	return f.c.Close()
}

// Lookup returns the named variable, its index for ReadRange and its
// declared value count, which the payload is known to hold.
func (f *File) Lookup(name string) (*Variable, int, int, error) {
	i := f.Header.varIndex(name)
	if i < 0 {
		return nil, -1, 0, fmt.Errorf("%w: variable %q", ErrNotFound, name)
	}
	return f.Header.Vars[i], i, f.n[i], nil
}

// ReadRange decodes values [off, off+len(dst)) of variable i into dst,
// reading only their bytes, through one pooled chunk buffer of at most
// 256 KiB.
func (f *File) ReadRange(i, off int, dst []float32) error {
	if i < 0 || i >= len(f.n) || off < 0 || len(dst) > f.n[i]-off {
		return fmt.Errorf("ncdf: range [%d,+%d) outside variable %d", off, len(dst), i)
	}
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	pos := f.off[i] + 4*int64(off)
	for len(dst) > 0 {
		c := min(len(dst), len(*bp)/4)
		b := (*bp)[:4*c]
		if k, err := f.r.ReadAt(b, pos); k < len(b) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		for k := range dst[:c] {
			dst[k] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*k:]))
		}
		dst, pos = dst[c:], pos+int64(len(b))
	}
	return nil
}

// readVars decodes the variables at the given indices of Header.Vars,
// all of them for none, into one backing array and sets their Data.
func (f *File) readVars(idx ...int) error {
	if len(idx) == 0 {
		idx = make([]int, len(f.n))
		for k := range idx {
			idx[k] = k
		}
	}
	total := 0
	for _, i := range idx {
		total += f.n[i]
	}
	backing := make([]float32, total)
	for _, i := range idx {
		v, n := f.Header.Vars[i], f.n[i]
		v.Data, backing = backing[:n:n], backing[n:]
		if err := f.ReadRange(i, 0, v.Data); err != nil {
			return fmt.Errorf("ncdf: payload of %q: %w", v.Name, err)
		}
	}
	return nil
}

// readFile decodes the named variables of path, all of them for none,
// with one open and one header parse.
func readFile(path string, names ...string) (*Dataset, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx := make([]int, len(names))
	for k, name := range names {
		if idx[k] = f.Header.varIndex(name); idx[k] < 0 {
			return nil, fmt.Errorf("%w: variable %q in %s", ErrNotFound, name, path)
		}
	}
	if err := f.readVars(idx...); err != nil {
		return nil, err
	}
	return f.Header, nil
}

// Read decodes a full dataset, payloads included.
func Read(r io.Reader) (*Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f, err := newFile(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	if err := f.readVars(); err != nil {
		return nil, err
	}
	return f.Header, nil
}

// ReadFile loads a dataset from path.
func ReadFile(path string) (*Dataset, error) { return readFile(path) }

// ReadHeaderFile loads only metadata (dims, attrs, variable shapes).
func ReadHeaderFile(path string) (*Dataset, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	f.Close()
	return f.Header, nil
}

// ReadVariableFile reads the named variable's payload (plus metadata)
// without reading other variables' data.
func ReadVariableFile(path, name string) (*Dataset, *Variable, error) {
	ds, err := readFile(path, name)
	if err != nil {
		return nil, nil, err
	}
	v, err := ds.Var(name)
	return ds, v, err
}

// ReadVarsFile reads the named variables of one file, with one open and
// one header parse, into one backing array: out[k] holds names[k].
func ReadVarsFile(path string, names []string) ([][]float32, error) {
	ds, err := readFile(path, names...)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(names))
	for k, name := range names {
		v, _ := ds.Var(name)
		out[k] = v.Data
	}
	return out, nil
}

// hdrReader decodes the header's little-endian fields, counting the
// bytes it consumes so that the payload offsets follow. The first
// failure sticks in err; values read after it are meaningless.
type hdrReader struct {
	r   *bufio.Reader
	n   int64
	err error
	b   [8]byte
}

func (h *hdrReader) fill(p []byte) {
	if h.err == nil {
		var k int
		k, h.err = io.ReadFull(h.r, p)
		h.n += int64(k)
	}
}

func (h *hdrReader) u32() uint32 { h.fill(h.b[:4]); return binary.LittleEndian.Uint32(h.b[:4]) }
func (h *hdrReader) u64() uint64 { h.fill(h.b[:8]); return binary.LittleEndian.Uint64(h.b[:8]) }

func (h *hdrReader) str() string {
	n := h.u32()
	if h.err != nil {
		return ""
	}
	if n > 1<<20 {
		h.err = fmt.Errorf("ncdf: unreasonable string length %d", n)
		return ""
	}
	if int(n) > h.r.Size() {
		buf := make([]byte, n)
		h.fill(buf)
		return string(buf)
	}
	p, err := h.r.Peek(int(n))
	if err != nil {
		h.err = err
		return ""
	}
	s := string(p)
	h.r.Discard(int(n))
	h.n += int64(n)
	return s
}

func (h *hdrReader) attrs() map[string]AttrValue {
	n := h.u32()
	// never trust the declared count for preallocation: corrupt input
	// must fail at the first missing byte, not allocate first
	attrs := make(map[string]AttrValue, min(int(n), 256))
	for i := uint32(0); i < n && h.err == nil; i++ {
		k := h.str()
		h.fill(h.b[:1])
		a := AttrValue{Kind: h.b[0]}
		switch a.Kind {
		case 's':
			a.S = h.str()
		case 'i':
			a.I = int64(h.u64())
		case 'f':
			a.F = math.Float64frombits(h.u64())
		default:
			if h.err == nil {
				h.err = fmt.Errorf("ncdf: unknown attribute kind %q", a.Kind)
			}
		}
		attrs[k] = a
	}
	return attrs
}

// header parses the metadata section and returns it with each
// variable's declared value count.
func (h *hdrReader) header() (*Dataset, []uint64) {
	if h.fill(h.b[:4]); h.err == nil && string(h.b[:4]) != Magic {
		h.err = ErrBadMagic
	}
	if h.err != nil {
		return nil, nil
	}
	ds := NewDataset()
	for i, nd := uint32(0), h.u32(); i < nd && h.err == nil; i++ {
		name := h.str()
		ds.Dims = append(ds.Dims, Dim{Name: name, Len: int(h.u64())})
	}
	ds.Attrs = h.attrs()
	nv := h.u32()
	lens := make([]uint64, 0, min(int(nv), 64))
	ds.Vars = make([]*Variable, 0, min(int(nv), 64))
	for i := uint32(0); i < nv && h.err == nil; i++ {
		v := &Variable{Name: h.str()}
		nd := h.u32()
		v.Dims = make([]string, 0, min(int(nd), 64))
		for j := uint32(0); j < nd && h.err == nil; j++ {
			v.Dims = append(v.Dims, h.str())
		}
		v.Attrs = h.attrs()
		lens = append(lens, h.u64())
		ds.Vars = append(ds.Vars, v)
	}
	return ds, lens
}
