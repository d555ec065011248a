package cubecluster

import (
	"fmt"
	"path/filepath"
	"strconv"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
	"repro/internal/dls"
	"repro/internal/ncdf"
)

// ReplaceLocalReplica swaps a NewLocal replica's engine for a fresh
// empty one and leaves the replica down+stale — the moment just after
// an operator restarted a dead shard process. Heal does the rest.
func (cl *Cluster) ReplaceLocalReplica(shard, rep int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.engines == nil {
		return fmt.Errorf("cubecluster: not a NewLocal cluster")
	}
	if shard >= len(cl.engines) || rep >= len(cl.engines[shard]) {
		return fmt.Errorf("cubecluster: no local replica %d/%d", shard, rep)
	}
	cl.engines[shard][rep].Close()
	e := datacube.NewEngine(cl.cfg.Engine)
	cl.engines[shard][rep] = e
	cl.stateMu.Lock()
	defer cl.stateMu.Unlock()
	r := cl.shards[shard][rep]
	_ = r.tr.Close()
	r.tr = NewEngineTransport(e)
	r.down = true
	r.stale = true
	cl.met.replicaUp.With(strconv.Itoa(shard), strconv.Itoa(rep)).Set(0)
	return nil
}

// Heal probes every down replica and resyncs the responsive ones from
// a healthy peer: each catalog part on the shard is exported by a live
// replica, staged through dls.CopyVerified (checksummed, atomic), and
// re-materialized on the healed replica with its exact catalog
// dimensions. Returns the number of replicas restored to service.
//
// Recovery is explicit and coordinator-paced — the lazy analogue of
// the multisite breaker's single half-open probe: a replica that fails
// its probe simply stays down until the next Heal.
func (cl *Cluster) Heal() (int, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	healed := 0
	for s := range cl.shards {
		for rep, r := range cl.shards[s] {
			if cl.healthy(s, rep) {
				continue
			}
			if _, err := r.tr.Do(&cubeserver.Request{Op: "ping"}); err != nil {
				continue // still dead; stays down
			}
			if err := cl.resyncReplica(s, rep); err != nil {
				return healed, fmt.Errorf("cubecluster: resync shard %d replica %d: %w", s, rep, err)
			}
			cl.markUp(s, rep)
			cl.met.resyncs.Inc()
			healed++
		}
	}
	return healed, nil
}

// resyncReplica re-seeds every catalog part living on the shard onto
// one replica. The replica is still marked down, so reads won't touch
// it mid-copy; its transport is used directly for the writes.
//
// Whatever stale copies the replica may still hold are dropped first,
// for every catalog entry and every entry deleted while pinned, before
// anything is re-seeded: a restarted replica numbers its cubes afresh,
// so a stale ID deleted after the first re-seed could name the new
// copy.
func (cl *Cluster) resyncReplica(shard, rep int) error {
	tr := cl.shards[shard][rep].tr
	forget := func(e *entry) {
		if p := e.partOn(shard); p != nil && p.ids[rep] != "" {
			_, _ = cl.send(shard, tr, &cubeserver.Request{Op: "delete", CubeID: p.ids[rep]})
			p.ids[rep] = ""
		}
	}
	ids := cl.listIDs()
	for _, id := range ids {
		forget(cl.cat[id])
	}
	for e := range cl.unlisted {
		forget(e)
	}
	for _, id := range ids {
		e := cl.cat[id]
		p := e.partOn(shard)
		if p == nil {
			continue
		}

		cl.healSeq++
		src := filepath.Join(cl.cfg.SpoolDir, fmt.Sprintf("resync-%d-src.nc", cl.healSeq))
		dst := filepath.Join(cl.cfg.SpoolDir, fmt.Sprintf("resync-%d-dst.nc", cl.healSeq))
		if _, err := cl.readPart(p, &cubeserver.Request{Op: "export", Path: src}); err != nil {
			return fmt.Errorf("export %s: %w", e.id, err)
		}
		if _, _, err := dls.CopyVerified(src, dst); err != nil {
			return fmt.Errorf("stage %s: %w", e.id, err)
		}
		ds, err := ncdf.ReadFile(dst)
		if err != nil {
			return fmt.Errorf("read staged %s: %w", e.id, err)
		}
		measure := e.measure
		if measure == "" {
			measure = "measure"
		}
		v, err := ds.Var(measure)
		if err != nil {
			return fmt.Errorf("staged %s: %w", e.id, err)
		}

		// Rebuild the part with its exact catalog dimensions (the export
		// drops degenerate implicit axes; the catalog doesn't).
		dims := partDims(e, p)
		if len(v.Data) != p.rows*e.implicit.Size {
			return fmt.Errorf("staged %s: %d values, want %d×%d", e.id, len(v.Data), p.rows, e.implicit.Size)
		}
		vals := make([][]float32, p.rows)
		for r := 0; r < p.rows; r++ {
			vals[r] = v.Data[r*e.implicit.Size : (r+1)*e.implicit.Size]
		}
		resp, err := cl.send(shard, tr, &cubeserver.Request{
			Op: "putcube", Var: e.measure, Dims: dims,
			ImplicitDim: e.implicit.Name, Values: vals,
		})
		if err != nil {
			return fmt.Errorf("putcube %s: %w", e.id, err)
		}
		if rerr := cubeserver.ResponseError(resp); rerr != nil {
			return fmt.Errorf("putcube %s: %w", e.id, rerr)
		}
		p.ids[rep] = resp.Shape.CubeID
	}
	return nil
}

// partDims is the part's local explicit dimension list: the entry's
// global dimensions with the leading axis cut down to the part's
// range.
func partDims(e *entry, p *part) []datacube.Dimension {
	dims := append([]datacube.Dimension(nil), e.explicit...)
	if len(dims) > 0 {
		dims[0].Size = p.leadHi - p.leadLo
	}
	return dims
}
