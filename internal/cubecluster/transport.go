// Package cubecluster shards a datacube deployment: a coordinator
// splits each cube's row space (the leading explicit dimension) into
// contiguous ranges across N cubeserver engine shards, replicates each
// shard, and executes the existing fused pipeline protocol by scatter
// and gather. Row-local operator runs are forwarded whole to every
// shard; row-collapsing barriers (aggrows) move only per-shard reduced
// partials over the wire; row-range barriers (subsetrows) become
// per-shard range intersections. This is the "scalable data analysis
// near the data" deployment of the paper's §4.2.2 taken one step
// further: the front end is a coordinator and the in-memory I/O
// servers become failure-isolated shard replicas.
//
// The coordinator implements cubeserver.Dispatcher, so cubecli and any
// wire client run the exact same requests against one engine or a
// whole cluster.
package cubecluster

import (
	"fmt"

	"repro/internal/cubeserver"
	"repro/internal/datacube"
)

// Transport is one coordinator→replica request channel. It carries the
// cubeserver wire protocol; a non-nil error from Do is a transport
// failure (replica unreachable), while server-side failures travel
// inside the Response.
type Transport interface {
	Do(req *cubeserver.Request) (*cubeserver.Response, error)
	Close() error
}

// EngineTransport serves a replica in-process: requests dispatch
// straight into an engine with no sockets in between, which is the
// default for benchmarks (the wire-byte accounting below still applies,
// so shard traffic is measured identically in-process and over TCP). A
// closed engine reports a transport error, mimicking a dead server
// process.
type EngineTransport struct {
	engine *datacube.Engine
	disp   cubeserver.Dispatcher
}

// NewEngineTransport wraps an engine as an in-process replica. The
// engine stays caller-owned.
func NewEngineTransport(e *datacube.Engine) *EngineTransport {
	return &EngineTransport{engine: e, disp: cubeserver.EngineDispatcher(e)}
}

// Do dispatches one request in-process.
func (t *EngineTransport) Do(req *cubeserver.Request) (*cubeserver.Response, error) {
	if t.engine.Closed() {
		return nil, fmt.Errorf("cubecluster: in-process replica is down (engine closed)")
	}
	return t.disp.Dispatch(req), nil
}

// Close is a no-op; the engine is owned by the caller.
func (t *EngineTransport) Close() error { return nil }

// requestBytes estimates the wire size of a request: float payloads at
// their natural width plus string lengths and a fixed framing
// overhead. The same estimator runs for in-process and TCP transports
// so the C3 shard sweep's bytes-on-wire numbers are transport-
// independent.
func requestBytes(req *cubeserver.Request) int {
	n := 64 + len(req.Op) + len(req.CubeID) + len(req.OtherID) + len(req.Var) +
		len(req.ImplicitDim) + len(req.Expr) + len(req.RowOp) + len(req.Key) +
		len(req.Value) + len(req.Path)
	for _, p := range req.Paths {
		n += len(p)
	}
	n += 8 * len(req.Params)
	for _, row := range req.Values {
		n += 4 * len(row)
	}
	for _, d := range req.Dims {
		n += 16 + len(d.Name)
	}
	for _, st := range req.Pipeline {
		n += 48 + len(st.Op) + len(st.Expr) + len(st.RowOp) + len(st.OtherID) + 8*len(st.Params)
	}
	return n
}

// responseBytes estimates the wire size of a response.
func responseBytes(resp *cubeserver.Response) int {
	n := 64 + len(resp.Err) + len(resp.ErrCode) + len(resp.Value)
	for _, row := range resp.Values {
		n += 4 * len(row)
	}
	n += 8 * len(resp.Partials)
	for _, id := range resp.IDs {
		n += len(id)
	}
	n += 48 + len(resp.Shape.CubeID) + len(resp.Shape.Measure) + len(resp.Shape.ImplicitName)
	for _, d := range resp.Shape.ExplicitDims {
		n += 16 + len(d.Name)
	}
	return n
}
