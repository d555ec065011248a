// Package ncdf implements a compact self-describing binary array format
// standing in for NetCDF, the exchange format of the paper's workflow
// (the ESM "produces daily NetCDF files ... including around 20 single
// precision floating point variables", §5.2).
//
// A Dataset holds named dimensions, global attributes and float32
// variables laid out row-major over their dimensions, mirroring the
// classic NetCDF data model. The on-disk layout is:
//
//	magic "GNC1" | header (dims, attrs, var metadata) | variable payloads
//
// with all integers little-endian and strings length-prefixed. Variable
// payloads are offset-addressed, so a variable, or a range of its values,
// can be read without loading the rest of the file (File.ReadRange; the
// datacube import path relies on this).
package ncdf

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Magic identifies the format ("Go NetCDF-like v1").
const Magic = "GNC1"

// ErrBadMagic marks a file that is not in GNC1 format.
var ErrBadMagic = errors.New("ncdf: bad magic")

// ErrNotFound is returned when a named variable or dimension is absent.
var ErrNotFound = errors.New("ncdf: not found")

// Dim is a named axis with a fixed length.
type Dim struct {
	Name string
	Len  int
}

// AttrValue is a typed attribute value: one of string, int64, float64.
type AttrValue struct {
	S string
	I int64
	F float64
	// Kind is 's', 'i' or 'f'.
	Kind byte
}

// String builds a string attribute.
func String(s string) AttrValue { return AttrValue{S: s, Kind: 's'} }

// Int builds an integer attribute.
func Int(i int64) AttrValue { return AttrValue{I: i, Kind: 'i'} }

// Float builds a float attribute.
func Float(f float64) AttrValue { return AttrValue{F: f, Kind: 'f'} }

// Variable is a float32 array over an ordered list of dimensions.
type Variable struct {
	Name  string
	Dims  []string // names, referencing Dataset.Dims
	Attrs map[string]AttrValue
	Data  []float32 // row-major; len must equal the dim-length product
}

// Dataset is an in-memory GNC1 file.
type Dataset struct {
	Dims  []Dim
	Attrs map[string]AttrValue
	Vars  []*Variable
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{Attrs: make(map[string]AttrValue)}
}

// AddDim appends a dimension; duplicate names are an error.
func (d *Dataset) AddDim(name string, n int) error {
	if n <= 0 {
		return fmt.Errorf("ncdf: dimension %q must be positive, got %d", name, n)
	}
	for _, dim := range d.Dims {
		if dim.Name == name {
			return fmt.Errorf("ncdf: duplicate dimension %q", name)
		}
	}
	d.Dims = append(d.Dims, Dim{Name: name, Len: n})
	return nil
}

// DimLen returns the length of the named dimension.
func (d *Dataset) DimLen(name string) (int, error) {
	for _, dim := range d.Dims {
		if dim.Name == name {
			return dim.Len, nil
		}
	}
	return 0, fmt.Errorf("%w: dimension %q", ErrNotFound, name)
}

// AddVar appends a variable after validating its shape against the
// declared dimensions.
func (d *Dataset) AddVar(name string, dims []string, data []float32) (*Variable, error) {
	for _, v := range d.Vars {
		if v.Name == name {
			return nil, fmt.Errorf("ncdf: duplicate variable %q", name)
		}
	}
	want := 1
	for _, dn := range dims {
		n, err := d.DimLen(dn)
		if err != nil {
			return nil, err
		}
		want *= n
	}
	if len(data) != want {
		return nil, fmt.Errorf("ncdf: variable %q has %d values, dims imply %d", name, len(data), want)
	}
	v := &Variable{Name: name, Dims: append([]string(nil), dims...), Attrs: make(map[string]AttrValue), Data: data}
	d.Vars = append(d.Vars, v)
	return v, nil
}

// Var returns the named variable.
func (d *Dataset) Var(name string) (*Variable, error) {
	if i := d.varIndex(name); i >= 0 {
		return d.Vars[i], nil
	}
	return nil, fmt.Errorf("%w: variable %q", ErrNotFound, name)
}

// varIndex returns the named variable's position in Vars, or -1.
func (d *Dataset) varIndex(name string) int {
	for i, v := range d.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// VarNames returns the sorted variable names.
func (d *Dataset) VarNames() []string {
	out := make([]string, len(d.Vars))
	for i, v := range d.Vars {
		out[i] = v.Name
	}
	sort.Strings(out)
	return out
}

// Shape returns the dimension lengths of v resolved against d.
func (d *Dataset) Shape(v *Variable) ([]int, error) {
	out := make([]int, len(v.Dims))
	for i, dn := range v.Dims {
		n, err := d.DimLen(dn)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// --- binary encoding ---------------------------------------------------

func writeStr(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeAttrs(w io.Writer, attrs map[string]AttrValue) error {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeStr(w, k); err != nil {
			return err
		}
		a := attrs[k]
		if _, err := w.Write([]byte{a.Kind}); err != nil {
			return err
		}
		switch a.Kind {
		case 's':
			if err := writeStr(w, a.S); err != nil {
				return err
			}
		case 'i':
			if err := binary.Write(w, binary.LittleEndian, a.I); err != nil {
				return err
			}
		case 'f':
			if err := binary.Write(w, binary.LittleEndian, a.F); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ncdf: unknown attribute kind %q", a.Kind)
		}
	}
	return nil
}

// Write encodes the dataset to w.
func (d *Dataset) Write(w io.Writer) error {
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(d.Dims))); err != nil {
		return err
	}
	for _, dim := range d.Dims {
		if err := writeStr(w, dim.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(dim.Len)); err != nil {
			return err
		}
	}
	if err := writeAttrs(w, d.Attrs); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(d.Vars))); err != nil {
		return err
	}
	for _, v := range d.Vars {
		if err := writeStr(w, v.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(v.Dims))); err != nil {
			return err
		}
		for _, dn := range v.Dims {
			if err := writeStr(w, dn); err != nil {
				return err
			}
		}
		if err := writeAttrs(w, v.Attrs); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(v.Data))); err != nil {
			return err
		}
	}
	// Payloads in header order.
	for _, v := range d.Vars {
		if err := writeFloats(w, v.Data); err != nil {
			return err
		}
	}
	return nil
}

func writeFloats(w io.Writer, data []float32) error {
	buf := make([]byte, 4*4096)
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > 4096 {
			n = 4096
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(data[off+i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// WriteFile writes the dataset to path atomically (tmp file + rename)
// so directory watchers never observe a half-written file. Output is
// buffered: the encoder's many small header fields become few syscalls.
func WriteFile(path string, d *Dataset) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<18)
	if err := d.Write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
