// Package cubeserver exposes a datacube.Engine over TCP, mirroring the
// Ophidia deployment of the paper's §4.2.2: "the client-side components
// (e.g., PyOphidia) dispatch the execution of the data processing tasks
// on the server-side, deployed near the HPC or Cloud infrastructure",
// with a front-end server in front of scalable in-memory I/O servers.
//
// Clients and server speak one protocol, v2 (wire.go): a session opens
// with a 4-byte magic that the server echoes, then carries
// length-prefixed binary frames with request IDs, so many requests
// pipeline over one multiplexed connection (mux.go) and bulk payloads
// move as raw float blocks. Cubes live server-side; clients hold
// lightweight handles, exactly as PyOphidia holds Ophidia PIDs.
package cubeserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/datacube"
	"repro/internal/obs"
)

// Request is one operation sent by a client.
type Request struct {
	// Op selects the operation: importfiles, apply, reduce, reducegroup,
	// subset, subsetrows, intercube, aggrows, row, values, scalar, list,
	// delete, export, setmeta, getmeta, stats, shape, ping — plus the
	// shard-plane operations importshard and putcube used by the
	// cubecluster coordinator.
	Op string

	CubeID  string
	OtherID string // second operand for intercube

	Paths       []string // importfiles
	Var         string   // importfiles: variable name
	ImplicitDim string   // importfiles: implicit dimension

	Expr   string    // apply
	RowOp  string    // reduce/reducegroup/aggrows / intercube op name
	Params []float64 // row-op parameters
	Group  int       // reducegroup
	Lo, Hi int       // subset / subsetrows
	Row    int       // row fetch

	Key, Value string // metadata
	Path       string // export target (server-side path)

	// Shard/Shards select this server's slice of the leading explicit
	// dimension for importshard: the server imports only rows
	// [Shard·L/Shards, (Shard+1)·L/Shards) of the leading dim, reading
	// just their bytes (datacube.Engine.ImportShard).
	Shard, Shards int

	// Values and Dims materialize a cube directly (Op "putcube"): Values
	// is the row-major payload, Dims the explicit dimensions, Var the
	// measure and ImplicitDim the implicit dimension's name.
	Values [][]float32
	Dims   []datacube.Dimension

	// Pipeline holds the steps of a server-side operator chain
	// (Op "pipeline").
	Pipeline []PipelineStep
}

// Shape describes a cube handle to the client.
type Shape struct {
	CubeID      string
	Rows        int
	ImplicitLen int
	Fragments   int
	Measure     string
	// ExplicitDims and ImplicitName carry the full dimensional identity
	// so a coordinator can track placement and re-materialize replicas
	// without guessing.
	ExplicitDims []datacube.Dimension
	ImplicitName string
}

// Response carries the result of one Request.
type Response struct {
	Err string
	// ErrCode classifies Err into a stable wire code (see errors.go) so
	// clients can restore the sentinel with errors.Is; empty for
	// unclassified failures.
	ErrCode string
	Shape   Shape
	// Values holds the rows of row and values. The rows of a values
	// answer dispatched in-process (EngineDispatcher, and a cluster
	// over in-process shards) share the engine's storage and must not
	// be written; a decoded answer owns its rows.
	Values [][]float32
	// Partials are the float64 shard-local reduction outputs of a
	// pipeline ending in a "partial" step (full precision; never rounded
	// through a cube).
	Partials []float64
	Scalar   float64
	IDs      []string
	Value    string
	Found    bool
	Stats    datacube.Stats
	// Resident (list) maps cube ID → resident payload bytes, including
	// built pyramid tiers; ResidentTotal (list, stats) is their sum —
	// the figure the server's byte budget is enforced against.
	Resident      map[string]int64
	ResidentTotal int64
}

// Dispatcher executes one wire request. EngineDispatcher serves a
// single engine; cubecluster's coordinator implements the same
// interface over a fleet of shards, so cubecli pipelines run unchanged
// against either.
type Dispatcher interface {
	Dispatch(req *Request) *Response
}

// wireCodec is the one value of the codec label on the wire metrics.
// The label stays because scrapers and the repository benchmark select
// series by {codec="v2"}.
const wireCodec = "v2"

// srvMetrics instruments the transport layer itself (the dispatcher
// reports its own failures inside responses).
type srvMetrics struct {
	protoErrs    *obs.Counter
	connTimeouts *obs.Counter
	wireIn       *obs.CounterVec // bytes read
	wireOut      *obs.CounterVec // bytes written
	conns        *obs.CounterVec // sessions opened
	inflight     *obs.Gauge
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	return &srvMetrics{
		protoErrs: reg.Counter("cubeserver_proto_errors_total",
			"connections dropped for a bad session magic, requests dropped on decode failure or replies lost on encode failure"),
		connTimeouts: reg.Counter("cubeserver_conn_timeouts_total",
			"connections closed after an idle/read/write deadline expired"),
		wireIn: reg.CounterVec("cubeserver_wire_bytes_in_total",
			"bytes read off client connections", "codec"),
		wireOut: reg.CounterVec("cubeserver_wire_bytes_out_total",
			"bytes written to client connections", "codec"),
		conns: reg.CounterVec("cubeserver_conns_total",
			"client sessions opened (magic exchanged)", "codec"),
		inflight: reg.Gauge("cubeserver_inflight_requests",
			"requests currently executing in per-connection workers"),
	}
}

// Options tunes a server's connection handling. The zero value asks
// for defaults everywhere.
type Options struct {
	// IdleTimeout closes connections with no request activity for this
	// long (default 2m; negative disables). Connections with requests
	// still executing are not idle and are left alone.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (default 30s; negative
	// disables). A peer that stops draining its socket is cut off
	// instead of pinning a handler goroutine forever.
	WriteTimeout time.Duration
	// MaxConcurrent caps in-flight requests per connection (default
	// 64); excess frames queue in the read loop.
	MaxConcurrent int
}

func (o Options) withDefaults() Options {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	return o
}

// Server wraps a dispatcher behind a TCP listener.
type Server struct {
	disp   Dispatcher
	ln     net.Listener
	met    *srvMetrics
	opts   Options
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port)
// backed by the given engine. The returned server is already accepting.
func Serve(addr string, engine *datacube.Engine) (*Server, error) {
	return ServeDispatcher(addr, EngineDispatcher(engine), nil)
}

// ServeDispatcher starts a server on addr routing every request through
// d with default Options. reg (optional) receives the server's
// transport instruments.
func ServeDispatcher(addr string, d Dispatcher, reg *obs.Registry) (*Server, error) {
	return ServeOptions(addr, d, reg, Options{})
}

// ServeOptions starts a server with explicit connection-handling
// options.
func ServeOptions(addr string, d Dispatcher, reg *obs.Registry, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{disp: d, ln: ln, met: newSrvMetrics(reg), opts: opts.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address, for clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes live connections and waits for handler
// goroutines to drain. The engine is left running (caller owns it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// armIdle sets the connection's read deadline to the idle horizon.
func (s *Server) armIdle(conn net.Conn) {
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
}

// armWrite sets the connection's write deadline for one response.
func (s *Server) armWrite(conn net.Conn) {
	if s.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// connDone reports whether a read/write error is a clean end of
// session (peer hangup, or our own Close tearing the conn down) rather
// than a protocol failure worth counting.
func connDone(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReaderSize(&meteredReader{r: conn, c: s.met.wireIn.With(wireCodec)}, 64<<10)
	w := &meteredWriter{w: conn, c: s.met.wireOut.With(wireCodec)}

	// A session opens with the 4-byte magic; anything else is not a
	// client of this protocol.
	s.armIdle(conn)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != wireMagic {
		switch {
		case isTimeout(err):
			s.met.connTimeouts.Inc()
		case err == nil || !connDone(err):
			s.met.protoErrs.Inc()
		}
		return
	}
	s.met.conns.With(wireCodec).Inc()

	// Ack the magic so the client commits to the session, then hand off
	// to the multiplexed frame loop (wire_server.go).
	s.armWrite(conn)
	if _, err := w.Write(wireMagic[:]); err != nil {
		return
	}
	s.handleV2(conn, br, w)
}

func shapeOf(c *datacube.Cube) Shape {
	return Shape{
		CubeID:       c.ID(),
		Rows:         c.Rows(),
		ImplicitLen:  c.ImplicitLen(),
		Fragments:    c.Fragments(),
		Measure:      c.Measure(),
		ExplicitDims: c.ExplicitDims(),
		ImplicitName: c.ImplicitDim().Name,
	}
}

// engineDispatcher maps wire requests onto a single datacube.Engine.
type engineDispatcher struct {
	engine *datacube.Engine
}

// EngineDispatcher exposes an engine as a Dispatcher — the classic
// one-server deployment, and the per-shard worker of a cubecluster.
func EngineDispatcher(e *datacube.Engine) Dispatcher { return &engineDispatcher{engine: e} }

func (s *engineDispatcher) Dispatch(req *Request) *Response {
	resp := &Response{}
	fail := func(err error) *Response {
		resp.Err = err.Error()
		resp.ErrCode = ErrCodeOf(err)
		return resp
	}
	cube := func(id string) (*datacube.Cube, error) { return s.engine.Get(id) }

	switch req.Op {
	case "ping":
		resp.Value = "pong"
	case "importfiles":
		c, err := s.engine.ImportFiles(req.Paths, req.Var, req.ImplicitDim)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(c)
	case "apply":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.Apply(req.Expr)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "reduce":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.Reduce(req.RowOp, req.Params...)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "reducegroup":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.ReduceGroup(req.RowOp, req.Group, req.Params...)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "reducestride":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.ReduceStride(req.RowOp, req.Group, req.Params...)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "subset":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.Subset(req.Lo, req.Hi)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "subsetrows":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.SubsetRows(req.Lo, req.Hi)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "intercube":
		a, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		b, err := cube(req.OtherID)
		if err != nil {
			return fail(err)
		}
		out, err := a.Intercube(b, req.RowOp)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "aggrows":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		out, err := c.AggregateRows(req.RowOp, req.Params...)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "row":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		row, err := c.Row(req.Row)
		if err != nil {
			return fail(err)
		}
		resp.Values = [][]float32{row}
	case "values":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		resp.Values = c.RowViews()
		resp.Shape = shapeOf(c)
	case "scalar":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		v, err := c.Scalar()
		if err != nil {
			return fail(err)
		}
		resp.Scalar = v
	case "shape":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(c)
	case "list":
		resp.IDs = s.engine.List()
		resp.Resident = make(map[string]int64, len(resp.IDs))
		for _, id := range resp.IDs {
			if c, err := s.engine.Get(id); err == nil {
				b := c.Bytes()
				resp.Resident[id] = b
				resp.ResidentTotal += b
			}
		}
	case "delete":
		if err := s.engine.Delete(req.CubeID); err != nil {
			return fail(err)
		}
	case "export":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		if err := c.ExportFile(req.Path); err != nil {
			return fail(err)
		}
	case "setmeta":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		c.SetMeta(req.Key, req.Value)
	case "getmeta":
		c, err := cube(req.CubeID)
		if err != nil {
			return fail(err)
		}
		resp.Value, resp.Found = c.Meta(req.Key)
	case "pipeline":
		preq := &PipelineRequest{CubeID: req.CubeID, Steps: req.Pipeline}
		if endsInPartial(req.Pipeline) {
			p, shape, err := runPartialPipeline(s.engine, preq)
			if err != nil {
				return fail(err)
			}
			resp.Partials, resp.Shape = p, shape
			break
		}
		out, err := runPipeline(s.engine, preq)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(out)
	case "stats":
		resp.Stats = s.engine.Stats()
		resp.ResidentTotal = s.engine.MemoryBytes()
	case "putcube":
		c, err := putCube(s.engine, req)
		if err != nil {
			return fail(err)
		}
		resp.Shape = shapeOf(c)
	case "importshard":
		c, found, err := s.engine.ImportShard(req.Paths, req.Var, req.ImplicitDim, req.Shard, req.Shards)
		if err != nil {
			return fail(err)
		}
		resp.Found = found
		if found {
			resp.Shape = shapeOf(c)
		}
	default:
		return fail(fmt.Errorf("%w %q", ErrUnknownOp, req.Op))
	}
	return resp
}

// putCube materializes a cube directly from wire values — how the
// cluster coordinator re-seeds a healed replica or lands a
// coordinator-held aggregation row on a shard when a later step needs
// it there.
func putCube(engine *datacube.Engine, req *Request) (*datacube.Cube, error) {
	rows := 1
	for _, d := range req.Dims {
		rows *= d.Size
	}
	if len(req.Values) != rows {
		return nil, fmt.Errorf("cubeserver: putcube got %d rows, dims say %d", len(req.Values), rows)
	}
	width := 0
	if len(req.Values) > 0 {
		width = len(req.Values[0])
	}
	for i, r := range req.Values {
		if len(r) != width {
			return nil, fmt.Errorf("cubeserver: putcube row %d has %d values, want %d", i, len(r), width)
		}
	}
	implicit := req.ImplicitDim
	if implicit == "" {
		implicit = "implicit"
	}
	return engine.NewCubeFromFunc(req.Var, req.Dims,
		datacube.Dimension{Name: implicit, Size: width},
		func(row, t int) float32 { return req.Values[row][t] })
}

// Client is a connection to a Server. It is safe for concurrent use:
// concurrent Do calls pipeline over one multiplexed connection
// (mux.go) instead of queueing on a mutex. After any transport failure
// the client is poisoned: the failing call reports the raw transport
// error once and every later call fails fast with ErrClientBroken.
type Client struct {
	mux *muxConn
}

// handshakeTimeout bounds the session handshake; servers answer the
// magic immediately, so a peer silent this long is not a cubeserver.
const handshakeTimeout = 5 * time.Second

// Dial connects to a server and opens a session: it sends the 4-byte
// magic and waits for the server's echo. A peer that hangs up, answers
// anything else or stays silent past the handshake deadline is not a
// cubeserver, and Dial fails.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var ack [4]byte
	if _, err = conn.Write(wireMagic[:]); err == nil {
		_, err = io.ReadFull(conn, ack[:])
	}
	if err == nil && ack != wireMagic {
		err = fmt.Errorf("unexpected reply %q", ack[:])
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cubeserver: handshake with %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return &Client{mux: newMuxConn(conn)}, nil
}

// Broken reports whether the client has been poisoned by a transport
// failure (or closed) and needs reconnecting.
func (c *Client) Broken() bool { return c.mux.broken() }

// Close terminates the connection. It is idempotent and safe to call
// concurrently with in-flight Do calls, which fail with a transport
// error as the connection tears down.
func (c *Client) Close() error { return c.mux.close() }

// Do performs one request/response exchange and returns the raw
// response; server-side failures arrive inside it (see ResponseError).
// A non-nil error is a transport failure and poisons the client.
func (c *Client) Do(req *Request) (*Response, error) { return c.mux.do(req) }

func (c *Client) call(req *Request) (*Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if err := ResponseError(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.call(&Request{Op: "ping"})
	if err != nil {
		return err
	}
	if resp.Value != "pong" {
		return fmt.Errorf("cubeserver: unexpected ping reply %q", resp.Value)
	}
	return nil
}

// RemoteCube is a client-side handle to a server-resident cube.
type RemoteCube struct {
	client *Client
	Shape  Shape
}

// NewRemoteCube builds a handle to an existing server-side cube by ID,
// refreshing its shape from the server when reachable. Operations on a
// stale or unknown ID fail server-side with a clear error.
func NewRemoteCube(c *Client, id string) *RemoteCube {
	r := &RemoteCube{client: c, Shape: Shape{CubeID: id}}
	if resp, err := c.call(&Request{Op: "shape", CubeID: id}); err == nil {
		r.Shape = resp.Shape
	}
	return r
}

// ID returns the server-side cube identifier.
func (r *RemoteCube) ID() string { return r.Shape.CubeID }

func (c *Client) wrap(resp *Response) *RemoteCube {
	return &RemoteCube{client: c, Shape: resp.Shape}
}

// ImportFiles loads a variable from server-side files into a cube.
func (c *Client) ImportFiles(paths []string, varName, implicitDim string) (*RemoteCube, error) {
	resp, err := c.call(&Request{Op: "importfiles", Paths: paths, Var: varName, ImplicitDim: implicitDim})
	if err != nil {
		return nil, err
	}
	return c.wrap(resp), nil
}

// List returns resident cube IDs.
func (c *Client) List() ([]string, error) {
	resp, err := c.call(&Request{Op: "list"})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Stats fetches engine counters.
func (c *Client) Stats() (datacube.Stats, error) {
	resp, err := c.call(&Request{Op: "stats"})
	if err != nil {
		return datacube.Stats{}, err
	}
	return resp.Stats, nil
}

// ResidentBytes reports per-cube resident payload bytes (including
// built pyramid tiers) and their total, as the server accounts them
// for byte-budget enforcement.
func (c *Client) ResidentBytes() (map[string]int64, int64, error) {
	resp, err := c.call(&Request{Op: "list"})
	if err != nil {
		return nil, 0, err
	}
	return resp.Resident, resp.ResidentTotal, nil
}

// Apply runs an elementwise expression server-side.
func (r *RemoteCube) Apply(expr string) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "apply", CubeID: r.ID(), Expr: expr})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// Reduce collapses the implicit axis with a named row op.
func (r *RemoteCube) Reduce(op string, params ...float64) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "reduce", CubeID: r.ID(), RowOp: op, Params: params})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// ReduceGroup reduces fixed-size groups along the implicit axis.
func (r *RemoteCube) ReduceGroup(op string, group int, params ...float64) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "reducegroup", CubeID: r.ID(), RowOp: op, Group: group, Params: params})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// ReduceStride reduces interleaved groups along the implicit axis
// (per-day-of-year statistics across stacked years).
func (r *RemoteCube) ReduceStride(op string, stride int, params ...float64) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "reducestride", CubeID: r.ID(), RowOp: op, Group: stride, Params: params})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// Subset selects an implicit-axis range.
func (r *RemoteCube) Subset(lo, hi int) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "subset", CubeID: r.ID(), Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// SubsetRows selects a leading-dimension row range.
func (r *RemoteCube) SubsetRows(lo, hi int) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "subsetrows", CubeID: r.ID(), Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// Intercube combines with another remote cube elementwise.
func (r *RemoteCube) Intercube(o *RemoteCube, op string) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "intercube", CubeID: r.ID(), OtherID: o.ID(), RowOp: op})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// AggregateRows reduces across rows.
func (r *RemoteCube) AggregateRows(op string, params ...float64) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "aggrows", CubeID: r.ID(), RowOp: op, Params: params})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}

// Row fetches one row's values.
func (r *RemoteCube) Row(row int) ([]float32, error) {
	resp, err := r.client.call(&Request{Op: "row", CubeID: r.ID(), Row: row})
	if err != nil {
		return nil, err
	}
	return resp.Values[0], nil
}

// Values fetches the whole cube (use sparingly; this is the
// synchronization point that moves data to the client).
func (r *RemoteCube) Values() ([][]float32, error) {
	resp, err := r.client.call(&Request{Op: "values", CubeID: r.ID()})
	if err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// Scalar fetches the single value of a 1×1 cube.
func (r *RemoteCube) Scalar() (float64, error) {
	resp, err := r.client.call(&Request{Op: "scalar", CubeID: r.ID()})
	if err != nil {
		return 0, err
	}
	return resp.Scalar, nil
}

// Delete frees the server-side cube.
func (r *RemoteCube) Delete() error {
	_, err := r.client.call(&Request{Op: "delete", CubeID: r.ID()})
	return err
}

// Export writes the cube to a server-side GNC1 file.
func (r *RemoteCube) Export(path string) error {
	_, err := r.client.call(&Request{Op: "export", CubeID: r.ID(), Path: path})
	return err
}

// SetMeta attaches metadata server-side.
func (r *RemoteCube) SetMeta(k, v string) error {
	_, err := r.client.call(&Request{Op: "setmeta", CubeID: r.ID(), Key: k, Value: v})
	return err
}

// Meta reads metadata.
func (r *RemoteCube) Meta(k string) (string, bool, error) {
	resp, err := r.client.call(&Request{Op: "getmeta", CubeID: r.ID(), Key: k})
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, nil
}
