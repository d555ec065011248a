// Package grid provides the regular latitude–longitude grid machinery
// the workflow's post-processing needs: coordinate mapping, bilinear
// regridding, tiling into non-overlapping patches and feature scaling
// (the paper's §5.4 pre-processing for the ML-based TC localization:
// "regridding the CMCC-CM3 file, tiling of data into non-overlapping
// patches, feature scaling, etc.").
package grid

import (
	"fmt"
	"math"
)

// Grid describes a regular global lat/lon grid. Latitudes run from
// -90+Δ/2 to 90-Δ/2 (cell centers), longitudes from 0 to 360-Δ.
type Grid struct {
	NLat int
	NLon int
}

// CMCCCM3 is the paper's native resolution: 768 latitudes × 1152
// longitudes (≈ ¼ degree).
var CMCCCM3 = Grid{NLat: 768, NLon: 1152}

// Reduced is the default test-scale grid.
var Reduced = Grid{NLat: 48, NLon: 96}

// Size returns the number of cells.
func (g Grid) Size() int { return g.NLat * g.NLon }

// LatStep returns the latitude spacing in degrees.
func (g Grid) LatStep() float64 { return 180 / float64(g.NLat) }

// LonStep returns the longitude spacing in degrees.
func (g Grid) LonStep() float64 { return 360 / float64(g.NLon) }

// Lat returns the center latitude of row i (south to north).
func (g Grid) Lat(i int) float64 { return -90 + (float64(i)+0.5)*g.LatStep() }

// Lon returns the center longitude of column j in [0,360).
func (g Grid) Lon(j int) float64 { return (float64(j) + 0.5) * g.LonStep() }

// Index maps (row, col) to the flat row-major offset.
func (g Grid) Index(i, j int) int { return i*g.NLon + j }

// RowCol maps a flat offset back to (row, col).
func (g Grid) RowCol(idx int) (int, int) { return idx / g.NLon, idx % g.NLon }

// CellOf returns the (row, col) containing the given coordinates.
// Longitude is normalized into [0,360); latitude is clamped.
func (g Grid) CellOf(lat, lon float64) (int, int) {
	lon = math.Mod(lon, 360)
	if lon < 0 {
		lon += 360
	}
	i := int((lat + 90) / g.LatStep())
	if i < 0 {
		i = 0
	}
	if i >= g.NLat {
		i = g.NLat - 1
	}
	j := int(lon/g.LonStep()) % g.NLon
	return i, j
}

// Field is a 2-D scalar field on a grid, row-major.
type Field struct {
	Grid Grid
	Data []float32
}

// NewField allocates a zero field.
func NewField(g Grid) *Field {
	return &Field{Grid: g, Data: make([]float32, g.Size())}
}

// At reads the value at (row, col); columns wrap around the globe and
// rows are clamped at the poles.
func (f *Field) At(i, j int) float32 {
	if i < 0 {
		i = 0
	}
	if i >= f.Grid.NLat {
		i = f.Grid.NLat - 1
	}
	j = ((j % f.Grid.NLon) + f.Grid.NLon) % f.Grid.NLon
	return f.Data[f.Grid.Index(i, j)]
}

// Set writes the value at (row, col) with the same wrapping rules.
func (f *Field) Set(i, j int, v float32) {
	if i < 0 {
		i = 0
	}
	if i >= f.Grid.NLat {
		i = f.Grid.NLat - 1
	}
	j = ((j % f.Grid.NLon) + f.Grid.NLon) % f.Grid.NLon
	f.Data[f.Grid.Index(i, j)] = v
}

// Regrid resamples the field onto dst using bilinear interpolation with
// longitudinal wraparound.
func (f *Field) Regrid(dst Grid) *Field { return f.RegridInto(NewField(dst)) }

// RegridInto is Regrid onto out's grid into out's storage, for callers
// that resample every step; every cell of out is overwritten.
func (f *Field) RegridInto(out *Field) *Field {
	dst, src := out.Grid, f.Grid
	for i := 0; i < dst.NLat; i++ {
		// fractional source row for this destination latitude
		si := (dst.Lat(i)+90)/src.LatStep() - 0.5
		i0 := int(math.Floor(si))
		di := si - float64(i0)
		for j := 0; j < dst.NLon; j++ {
			sj := dst.Lon(j)/src.LonStep() - 0.5
			j0 := int(math.Floor(sj))
			dj := sj - float64(j0)
			v00 := float64(f.At(i0, j0))
			v01 := float64(f.At(i0, j0+1))
			v10 := float64(f.At(i0+1, j0))
			v11 := float64(f.At(i0+1, j0+1))
			v := v00*(1-di)*(1-dj) + v01*(1-di)*dj + v10*di*(1-dj) + v11*di*dj
			out.Data[dst.Index(i, j)] = float32(v)
		}
	}
	return out
}

// Stats holds summary statistics of a field.
type Stats struct {
	Min, Max, Mean, Std float64
}

// Statistics computes min/max/mean/std of the field.
func (f *Field) Statistics() Stats {
	if len(f.Data) == 0 {
		return Stats{}
	}
	mn, mx := float64(f.Data[0]), float64(f.Data[0])
	var sum float64
	for _, v := range f.Data {
		fv := float64(v)
		if fv < mn {
			mn = fv
		}
		if fv > mx {
			mx = fv
		}
		sum += fv
	}
	mean := sum / float64(len(f.Data))
	var ss float64
	for _, v := range f.Data {
		d := float64(v) - mean
		ss += d * d
	}
	return Stats{Min: mn, Max: mx, Mean: mean, Std: math.Sqrt(ss / float64(len(f.Data)))}
}

// MinMaxScale rescales values into [0,1] in place and returns the
// original (min, max). A constant field maps to all zeros.
func (f *Field) MinMaxScale() (min, max float64) {
	s := f.Statistics()
	min, max = s.Min, s.Max
	span := max - min
	if span == 0 {
		for i := range f.Data {
			f.Data[i] = 0
		}
		return min, max
	}
	for i := range f.Data {
		f.Data[i] = float32((float64(f.Data[i]) - min) / span)
	}
	return min, max
}

// Standardize rescales to zero mean, unit variance in place, returning
// the original (mean, std). A constant field maps to all zeros.
func (f *Field) Standardize() (mean, std float64) {
	s := f.Statistics()
	mean, std = s.Mean, s.Std
	if std == 0 {
		for i := range f.Data {
			f.Data[i] = 0
		}
		return mean, std
	}
	for i := range f.Data {
		f.Data[i] = float32((float64(f.Data[i]) - mean) / std)
	}
	return mean, std
}

// Patch is one non-overlapping tile of a field.
type Patch struct {
	// Row0, Col0 are the top-left grid coordinates of the tile.
	Row0, Col0 int
	// H, W are the tile dimensions.
	H, W int
	// Data is the row-major tile content.
	Data []float32
}

// Index maps tile-local (r, c) to the flat offset in Data.
func (p *Patch) Index(r, c int) int { return r*p.W + c }

// Tile cuts the field into non-overlapping h×w patches, row-major over
// tiles. Edge tiles are dropped when the grid does not divide evenly,
// matching the "non-overlapping patches" preprocessing of §5.4.
func (f *Field) Tile(h, w int) ([]Patch, error) {
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("grid: invalid patch size %dx%d", h, w)
	}
	if h > f.Grid.NLat || w > f.Grid.NLon {
		return nil, fmt.Errorf("grid: patch %dx%d larger than grid %dx%d", h, w, f.Grid.NLat, f.Grid.NLon)
	}
	var out []Patch
	for i := 0; i+h <= f.Grid.NLat; i += h {
		for j := 0; j+w <= f.Grid.NLon; j += w {
			p := Patch{Row0: i, Col0: j, H: h, W: w, Data: make([]float32, h*w)}
			for r := 0; r < h; r++ {
				copy(p.Data[r*w:(r+1)*w], f.Data[f.Grid.Index(i+r, j):f.Grid.Index(i+r, j)+w])
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// Haversine returns the great-circle distance in kilometers between two
// (lat, lon) points in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}
