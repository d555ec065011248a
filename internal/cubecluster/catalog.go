package cubecluster

import (
	"fmt"
	"sort"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

// part is one shard's slice of a cluster cube: the half-open range
// [leadLo, leadHi) of the global leading explicit dimension, plus the
// per-replica cube IDs holding it ("" where a replica missed the
// write and is stale for this cube).
type part struct {
	shard          int
	leadLo, leadHi int
	rows           int
	ids            []string
}

// entry is the cluster catalog record for one cube: its global shape
// and where every slice of it lives. explicit is the GLOBAL dimension
// list (leading size = sum of part ranges); rowless cubes (no explicit
// dimensions) have a single shard-0 part covering [0,1).
//
// An aggrows result is held by the coordinator itself: row is its one
// row, and parts stays empty until a later step needs the row on a
// shard (place).
type entry struct {
	id       string
	measure  string
	explicit []datacube.Dimension
	implicit datacube.Dimension
	parts    []part
	row      []float32
	meta     map[string]string
	// pins counts the unlocked pipelines reading the entry (pin).
	pins int
}

// heldEntry is the coordinator-held 1 × N result of an aggrows whose
// reduced rows had the given shape.
func heldEntry(shape cubeserver.Shape, row []float32) *entry {
	return &entry{
		measure:  shape.Measure,
		explicit: []datacube.Dimension{{Name: "all", Size: 1}},
		implicit: datacube.Dimension{Name: shape.ImplicitName, Size: len(row)},
		row:      row,
	}
}

func (e *entry) totalRows() int {
	if e.row != nil {
		return 1
	}
	n := 0
	for _, p := range e.parts {
		n += p.rows
	}
	return n
}

func (e *entry) leadSize() int {
	if len(e.explicit) == 0 {
		return 1
	}
	return e.explicit[0].Size
}

// shape renders the entry as the wire Shape a single engine would
// report, with Fragments standing in for the part count (1 for a
// coordinator-held row).
func (e *entry) shape() cubeserver.Shape {
	return cubeserver.Shape{
		CubeID:       e.id,
		Rows:         e.totalRows(),
		ImplicitLen:  e.implicit.Size,
		Fragments:    max(len(e.parts), 1),
		Measure:      e.measure,
		ExplicitDims: append([]datacube.Dimension(nil), e.explicit...),
		ImplicitName: e.implicit.Name,
	}
}

// samePlacement reports whether two entries are co-sharded: identical
// part count, shard assignment and leading ranges, which is what
// intercube needs to run shard-local.
func samePlacement(a, b *entry) bool {
	if len(a.parts) != len(b.parts) {
		return false
	}
	for i := range a.parts {
		pa, pb := a.parts[i], b.parts[i]
		if pa.shard != pb.shard || pa.leadLo != pb.leadLo || pa.leadHi != pb.leadHi {
			return false
		}
	}
	return true
}

// getEntry resolves a cluster cube ID; unknown IDs wrap
// datacube.ErrNotFound so the sentinel survives the wire.
func (cl *Cluster) getEntry(id string) (*entry, error) {
	e, ok := cl.cat[id]
	if !ok {
		return nil, fmt.Errorf("%w: no cluster cube %q", datacube.ErrNotFound, id)
	}
	return e, nil
}

// register assigns the entry a cluster ID and records it.
func (cl *Cluster) register(e *entry) *entry {
	e.id = fmt.Sprintf("ccube-%d", cl.nextID)
	cl.nextID++
	if e.meta == nil {
		e.meta = make(map[string]string)
	}
	cl.cat[e.id] = e
	return e
}

// place lands a coordinator-held row on shard 0 (every live replica)
// so that shard operations can read it; entries with parts are left
// alone.
func (cl *Cluster) place(e *entry) error {
	if len(e.parts) > 0 {
		return nil
	}
	shape, ids, _, err := cl.writeShard(0, func(int) *cubeserver.Request {
		return &cubeserver.Request{
			Op: "putcube", Var: e.measure, Dims: e.explicit,
			ImplicitDim: e.implicit.Name, Values: [][]float32{e.row},
		}
	})
	if err != nil {
		cl.dropParts([]part{{shard: 0, ids: ids}})
		return err
	}
	e.parts = []part{{shard: 0, leadLo: 0, leadHi: 1, rows: shape.Rows, ids: ids}}
	return nil
}

// pin keeps entries' shard cubes alive while an unlocked pipeline
// reads them; unpin releases them, freeing the cubes of an entry
// deleted meanwhile once its last reader is done.
func (cl *Cluster) pin(es []*entry) {
	for _, e := range es {
		e.pins++
	}
}

func (cl *Cluster) unpin(es []*entry) {
	for _, e := range es {
		e.pins--
		if _, gone := cl.unlisted[e]; gone && e.pins == 0 {
			delete(cl.unlisted, e)
			cl.dropParts(e.parts)
		}
	}
}

func (cl *Cluster) listIDs() []string {
	out := make([]string, 0, len(cl.cat))
	for id := range cl.cat {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
