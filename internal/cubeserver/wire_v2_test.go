package cubeserver

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/obs"
)

// These tests pin the v2 wire layer: codec round-trips, gob parity on
// nil-vs-empty, response routing under heavy multiplexing, mixed-
// version negotiation, and the server's timeout/garbage accounting.

func fullRequest() *Request {
	return &Request{
		Op: "pipeline", CubeID: "cube-7", OtherID: "cube-9",
		Paths: []string{"/a.nc", "/b.nc"}, Var: "T", ImplicitDim: "time",
		Expr: "x>5 ? 1 : 0", RowOp: "sum", Params: []float64{1.5, -2.25, 1e300},
		Group: 4, Lo: 2, Hi: 14, Row: 3, Key: "k", Value: "v", Path: "/out.nc",
		Shard: 1, Shards: 4,
		Values: [][]float32{{1, 2, 3}, {4, 5, 6}},
		Dims:   []datacube.Dimension{{Name: "lat", Size: 2}, {Name: "lon", Size: 3}},
		Pipeline: []PipelineStep{
			{Op: "apply", Expr: "x*2", Keep: true},
			{Op: "reduce", RowOp: "avg", Params: []float64{0.5}, Group: 2, Lo: 1, Hi: 9, OtherID: "cube-3", Tolerance: 0.25},
		},
	}
}

func fullResponse() *Response {
	return &Response{
		Err: "boom", ErrCode: CodeNotFound,
		Shape: Shape{CubeID: "cube-1", Rows: 8, ImplicitLen: 16, Fragments: 4, Measure: "T",
			ExplicitDims: []datacube.Dimension{{Name: "lat", Size: 8}}, ImplicitName: "time"},
		Values:   [][]float32{{1.5}, {2.5, 3.5}},
		Partials: []float64{1, 2, 3.75},
		Scalar:   6.5, IDs: []string{"cube-1", "cube-2"}, Value: "pong", Found: true,
		Stats:    datacube.Stats{FileReads: 1, CellsProcessed: 2, Ops: 3, FragmentTasks: 4},
		Resident: map[string]int64{"cube-1": 1024, "cube-2": 2048}, ResidentTotal: 3072,
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	req := fullRequest()
	var got Request
	if err := DecodeRequestV2(AppendRequestV2(nil, req), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, req) {
		t.Fatalf("request round trip diverged:\ngot  %+v\nwant %+v", &got, req)
	}

	resp := fullResponse()
	var gotR Response
	if err := DecodeResponseV2(AppendResponseV2(nil, resp), &gotR); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotR, resp) {
		t.Fatalf("response round trip diverged:\ngot  %+v\nwant %+v", &gotR, resp)
	}
}

// TestWireCodecGobParity decodes the same zero-ish response through
// both codecs and demands identical structs — in particular, empty
// slices and maps must come back nil on both paths, or DeepEqual-based
// equivalence checks would tell codecs apart.
func TestWireCodecGobParity(t *testing.T) {
	for _, resp := range []*Response{
		{},
		{Values: [][]float32{}, Partials: []float64{}, IDs: []string{}, Resident: map[string]int64{}},
		fullResponse(),
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		var viaGob Response
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		var viaV2 Response
		if err := DecodeResponseV2(AppendResponseV2(nil, resp), &viaV2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaGob, viaV2) {
			t.Fatalf("codec asymmetry:\ngob %+v\nv2  %+v", viaGob, viaV2)
		}
	}
}

// TestDecodeStaleFieldsCleared pins the pooled-struct contract: a
// decode into a dirty struct must not leak the previous request's
// slice fields when the new frame has zero entries.
func TestDecodeStaleFieldsCleared(t *testing.T) {
	var req Request
	if err := DecodeRequestV2(AppendRequestV2(nil, fullRequest()), &req); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestV2(AppendRequestV2(nil, &Request{Op: "ping"}), &req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&req, &Request{Op: "ping"}) {
		t.Fatalf("stale fields survived re-decode: %+v", &req)
	}
}

func TestDialNegotiatesV2(t *testing.T) {
	client, _ := startServer(t)
	if got := client.Codec(); got != "v2" {
		t.Fatalf("default dial negotiated %q, want v2", got)
	}
}

// TestMuxConcurrentDo hammers one multiplexed client from many
// goroutines with interleaved large (putcube/values) and small (ping)
// payloads, and checks every goroutine reads back exactly the payload
// it wrote — response frames must never cross wires.
func TestMuxConcurrentDo(t *testing.T) {
	client, _ := startServer(t)
	if client.Codec() != "v2" {
		t.Fatalf("want a v2 session, got %q", client.Codec())
	}

	const workers = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 { // small payloads
					if err := client.Ping(); err != nil {
						errs <- err
						return
					}
					continue
				}
				// Large payload: land a cube whose cells encode this
				// goroutine's identity, read it back, verify, delete.
				rows := make([][]float32, 32)
				for r := range rows {
					rows[r] = make([]float32, 512)
					for c := range rows[r] {
						rows[r][c] = float32(w*1000000 + r*1000 + c)
					}
				}
				resp, err := client.call(&Request{
					Op: "putcube", Var: "T", ImplicitDim: "time",
					Values: rows, Dims: []datacube.Dimension{{Name: "row", Size: 32}},
				})
				if err != nil {
					errs <- err
					return
				}
				cube := &RemoteCube{client: client, Shape: resp.Shape}
				got, err := cube.Values()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, rows) {
					errs <- fmt.Errorf("worker %d iter %d: echoed cube diverged", w, i)
					return
				}
				if err := cube.Delete(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// interopPipelineResult runs a fixed import+pipeline+values against a
// server through one client and returns the final values.
func interopPipelineResult(t *testing.T, client *Client, path string) [][]float32 {
	t.Helper()
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	out, err := cube.Pipeline(
		PipelineStep{Op: "apply", Expr: "x*2"},
		PipelineStep{Op: "reducegroup", RowOp: "max", Group: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := out.Values()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestInteropMixedVersions crosses both client generations with both
// server generations and demands byte-identical pipeline results, plus
// sentinel identity on each negotiated path.
func TestInteropMixedVersions(t *testing.T) {
	path := writeTestFile(t, t.TempDir(), "a.nc")

	run := func(t *testing.T, gobOnlyServer bool, dial func(string) (*Client, error), wantCodec string) [][]float32 {
		t.Helper()
		engine := datacube.NewEngine(datacube.Config{Servers: 2, FragmentsPerCube: 4})
		srv, err := ServeOptions("127.0.0.1:0", EngineDispatcher(engine), nil, Options{GobOnly: gobOnlyServer})
		if err != nil {
			t.Fatal(err)
		}
		client, err := dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close(); srv.Close(); engine.Close() })
		if got := client.Codec(); got != wantCodec {
			t.Fatalf("negotiated %q, want %q", got, wantCodec)
		}
		// Sentinels survive whatever codec was negotiated.
		if _, err := client.call(&Request{Op: "shape", CubeID: "cube-404"}); !errors.Is(err, datacube.ErrNotFound) {
			t.Fatalf("want ErrNotFound across %s wire, got %v", wantCodec, err)
		}
		return interopPipelineResult(t, client, path)
	}

	v2v2 := run(t, false, Dial, "v2")
	v2Gob := run(t, true, Dial, "gob")     // v2 client negotiates down
	gobV2 := run(t, false, DialGob, "gob") // legacy client, modern server
	gobGob := run(t, true, DialGob, "gob") // legacy both sides
	for name, got := range map[string][][]float32{"v2↔gob-only": v2Gob, "gob↔v2": gobV2, "gob↔gob": gobGob} {
		if !reflect.DeepEqual(got, v2v2) {
			t.Fatalf("%s diverged from v2↔v2:\ngot  %v\nwant %v", name, got, v2v2)
		}
	}
}

// TestServerCountsV2Garbage opens a negotiated v2 session, then feeds
// the server a well-framed but undecodable request and an oversized
// frame; both must be counted, and the first must not kill the session.
func TestServerCountsV2Garbage(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	reg := obs.NewRegistry()
	srv, err := ServeDispatcher("127.0.0.1:0", EngineDispatcher(engine), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wireMagic[:]); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack != wireMagic {
		t.Fatalf("no magic ack: %v %v", ack, err)
	}

	// Well-delimited frame whose body is garbage: counted, answered with
	// an error response, session survives.
	frame := finishFrame(append(beginFrame(nil, frameRequest, 1), 0xde, 0xad, 0xbe, 0xef))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var resp Response
	ftype, id, rframe, body, _, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != frameResponse || id != 1 {
		t.Fatalf("frame type %d id %d", ftype, id)
	}
	if err := DecodeResponseV2(body, &resp); err != nil {
		t.Fatal(err)
	}
	putBuf(rframe)
	if resp.Err == "" {
		t.Fatal("garbage body produced a success response")
	}
	if got := srv.met.protoErrs.Value(); got != 1 {
		t.Fatalf("proto errors after garbage body = %v, want 1", got)
	}

	// Oversized frame: counted, connection dropped.
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], maxFrameBytes+1)
	if _, err := conn.Write(huge[:]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.met.protoErrs.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("oversized frame never counted")
		}
		time.Sleep(time.Millisecond)
	}

	// The server still accepts fresh clients.
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerIdleTimeout pins the stalled-peer fix: a connection that
// negotiates and then goes silent is closed once the idle horizon
// passes, and the expiry is counted.
func TestServerIdleTimeout(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	reg := obs.NewRegistry()
	srv, err := ServeOptions("127.0.0.1:0", EngineDispatcher(engine), reg,
		Options{IdleTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wireMagic[:]); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}

	// Go silent; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(ack[:1]); err == nil || isTimeout(err) {
		t.Fatalf("want server-side hangup, got %v", err)
	}
	if got := srv.met.connTimeouts.Value(); got != 1 {
		t.Fatalf("conn timeouts = %v, want 1", got)
	}
}

// slowDispatcher delays every request — long enough to outlast a short
// idle horizon, which must NOT kill a connection that is merely busy.
type slowDispatcher struct {
	d     Dispatcher
	delay time.Duration
}

func (s slowDispatcher) Dispatch(req *Request) *Response {
	time.Sleep(s.delay)
	return s.d.Dispatch(req)
}

// TestIdleTimeoutSparesBusyConns runs a request that takes 5× the idle
// horizon to execute; the connection is busy, not idle, and the call
// must complete.
func TestIdleTimeoutSparesBusyConns(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	srv, err := ServeOptions("127.0.0.1:0", slowDispatcher{d: EngineDispatcher(engine), delay: 150 * time.Millisecond}, nil,
		Options{IdleTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatalf("slow request killed by idle timeout: %v", err)
	}
}

// TestClientCloseConcurrentSafe closes a client from one goroutine
// while others are mid-Do, then demands Close idempotency and
// ErrClientBroken on later use.
func TestClientCloseConcurrentSafe(t *testing.T) {
	for _, dial := range []struct {
		name string
		fn   func(string) (*Client, error)
	}{{"v2", Dial}, {"gob", DialGob}} {
		t.Run(dial.name, func(t *testing.T) {
			engine := datacube.NewEngine(datacube.Config{Servers: 1})
			defer engine.Close()
			srv, err := Serve("127.0.0.1:0", engine)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			client, err := dial.fn(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 50; j++ {
						if err := client.Ping(); err != nil {
							return // the close raced us, as intended
						}
					}
				}()
			}
			time.Sleep(time.Millisecond)
			for i := 0; i < 3; i++ {
				if err := client.Close(); err != nil {
					t.Fatalf("close %d: %v", i, err)
				}
			}
			wg.Wait()
			if !client.Broken() {
				t.Fatal("closed client not reported broken")
			}
			err = client.Ping()
			if err == nil {
				t.Fatal("ping succeeded on closed client")
			}
		})
	}
}

// nonCanonicalBool is a request body whose one Keep flag is the byte
// 0x02: once decoded as true it re-encoded as 0x01, so an accepted
// frame did not round-trip.
func nonCanonicalBool() []byte {
	req := &Request{Op: "pipeline", Pipeline: []PipelineStep{{Op: "apply", Expr: "x", Keep: true}}}
	body := AppendRequestV2(nil, req)
	req.Pipeline[0].Keep = false
	for i, b := range AppendRequestV2(nil, req) {
		if b != body[i] {
			body[i] = 0x02
			break
		}
	}
	return body
}

func TestWireRejectsNonCanonicalBool(t *testing.T) {
	var req Request
	if err := DecodeRequestV2(nonCanonicalBool(), &req); err == nil {
		t.Fatal("a bool byte of 0x02 decoded; the codec only writes 0x00 and 0x01")
	}
}

// FuzzWireFrame throws arbitrary bytes at both v2 body decoders and at
// the frame reader; nothing may panic, and whatever decodes must
// re-encode to a byte-identical body (round-trip stability).
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(AppendRequestV2(nil, fullRequest()))
	f.Add(AppendResponseV2(nil, fullResponse()))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Truncations of a valid body hit every length-check branch.
	valid := AppendRequestV2(nil, fullRequest())
	f.Add(valid[:len(valid)/2])
	// A frame header claiming more than the body delivers.
	f.Add(finishFrame(append(beginFrame(nil, frameRequest, 7), 0xba, 0xad)))
	f.Add(nonCanonicalBool())
	// Float blocks of special values (NaN payloads, ±0, ±Inf,
	// subnormals, extremes) in zero-length and ragged rows: the
	// re-encode check below then fuzzes the bulk copy's round trip.
	f.Add(AppendResponseV2(nil, &Response{Values: specialRows(), Partials: f64sOf(wireF64Specials)}))
	f.Add(AppendRequestV2(nil, &Request{Op: "putcube", Values: specialRows(), Params: f64sOf(wireF64Specials)}))
	f.Add(AppendResponseV2(nil, &Response{Values: [][]float32{nil, nil, nil}}))
	f.Add(AppendResponseV2(nil, &Response{Values: [][]float32{
		f32sOf(wireF32Specials[:5]), nil, f32sOf(wireF32Specials[5:6]), f32sOf(wireF32Specials[6:]),
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := DecodeRequestV2(data, &req); err == nil {
			re := AppendRequestV2(nil, &req)
			if !bytes.Equal(re, data) {
				t.Fatalf("request re-encode diverged from accepted input")
			}
		}
		var resp Response
		if err := DecodeResponseV2(data, &resp); err == nil && len(resp.Resident) <= 1 {
			// Skip multi-entry Resident maps: iteration order makes their
			// re-encoding non-canonical by design.
			re := AppendResponseV2(nil, &resp)
			if !bytes.Equal(re, data) {
				t.Fatalf("response re-encode diverged from accepted input")
			}
		}
		// Frame reader over the raw bytes: must terminate without panic
		// and never hand back a frame larger than the input.
		ftype, _, frame, body, _, err := readFrame(bytes.NewReader(data))
		if err == nil {
			if ftype != frameRequest && ftype != frameResponse {
				_ = ftype // unknown types are the session loop's problem
			}
			if len(body) > len(data) {
				t.Fatalf("frame body %d bytes from %d input bytes", len(body), len(data))
			}
			putBuf(frame)
		}
	})
}
