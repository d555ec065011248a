package cubeserver

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/obs"
)

// These tests pin the wire protocol's error fidelity: classified
// server-side failures must restore their sentinels on the client, a
// transport failure must poison the client for good, and protocol
// garbage must be counted rather than silently swallowed.

func TestWireErrorNotFoundSentinel(t *testing.T) {
	client, _ := startServer(t)
	for _, op := range []string{"apply", "shape", "delete"} {
		_, err := client.call(&Request{Op: op, CubeID: "cube-404", Expr: "x"})
		if !errors.Is(err, datacube.ErrNotFound) {
			t.Fatalf("%s on ghost cube: want datacube.ErrNotFound across the wire, got %v", op, err)
		}
	}
	// The server's message survives alongside the sentinel.
	_, err := client.call(&Request{Op: "shape", CubeID: "cube-404"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeNotFound {
		t.Fatalf("want RemoteError with code %q, got %#v", CodeNotFound, err)
	}
}

func TestWireErrorEngineClosedSentinel(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	srv, err := Serve("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	engine.Close()
	if _, err := cube.Apply("x+1"); !errors.Is(err, datacube.ErrEngineClosed) {
		t.Fatalf("apply on closed engine: want datacube.ErrEngineClosed across the wire, got %v", err)
	}
}

func TestWireErrorUnknownOpSentinel(t *testing.T) {
	client, _ := startServer(t)
	if _, err := client.call(&Request{Op: "explode"}); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("want ErrUnknownOp across the wire, got %v", err)
	}
	// Unknown pipeline step ops classify the same way.
	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Pipeline(PipelineStep{Op: "explode"}); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("want ErrUnknownOp for unknown pipeline step, got %v", err)
	}
}

// TestClientPoisonedAfterTransportError breaks the connection under a
// live client and demands the first call report the transport failure
// and every later call fail fast with ErrClientBroken — a desynced
// stream must never serve another request.
func TestClientPoisonedAfterTransportError(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	srv, err := Serve("127.0.0.1:0", engine)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}

	srv.Close() // kills the server-side conn mid-session
	if err := client.Ping(); err == nil || errors.Is(err, ErrClientBroken) {
		t.Fatalf("first call after break: want the raw transport error, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Ping(); !errors.Is(err, ErrClientBroken) {
			t.Fatalf("call %d after break: want ErrClientBroken, got %v", i, err)
		}
	}
}

// TestServerCountsProtocolGarbage opens connections that do not start
// with the session magic — raw garbage, and a well-formed gob stream
// carrying a Request — and checks each is counted as a protocol error
// and hung up on, while the server keeps serving well-formed clients.
func TestServerCountsProtocolGarbage(t *testing.T) {
	engine := datacube.NewEngine(datacube.Config{Servers: 1})
	defer engine.Close()
	reg := obs.NewRegistry()
	srv, err := ServeDispatcher("127.0.0.1:0", EngineDispatcher(engine), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var gobReq bytes.Buffer
	if err := gob.NewEncoder(&gobReq).Encode(&Request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	for i, in := range []struct {
		name  string
		bytes []byte
	}{
		{"garbage", []byte("\xff\xfe this is not a session \x00\x01")},
		{"gob request", gobReq.Bytes()},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(in.bytes); err != nil {
			t.Fatal(err)
		}
		// The server must hang up without answering: a read sees EOF (or
		// a reset, as the server leaves input unread), never a reply.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [1]byte
		n, err := conn.Read(b[:])
		conn.Close()
		if n > 0 || err == nil || isTimeout(err) {
			t.Fatalf("%s: want the server to hang up, read %d bytes, err %v", in.name, n, err)
		}
		if got := srv.met.protoErrs.Value(); got != float64(i+1) {
			t.Fatalf("%s: proto errors = %v, want %d", in.name, got, i+1)
		}
	}

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err != nil {
		t.Fatalf("server should survive protocol garbage, ping failed: %v", err)
	}
}

// TestDialFailsOnBadHandshake points Dial at peers that are not
// cubeservers: one that hangs up at once and one that answers the
// magic with four other bytes and then stays open. Dial must fail
// promptly in both cases — well inside the handshake deadline — rather
// than hand back a client that cannot talk to its peer.
func TestDialFailsOnBadHandshake(t *testing.T) {
	for _, peer := range []struct {
		name  string
		serve func(net.Conn)
	}{
		{"hangup", func(c net.Conn) { c.Close() }},
		{"wrong echo", func(c net.Conn) {
			var magic [4]byte
			io.ReadFull(c, magic[:])
			c.Write([]byte("CW1\x00"))
			// Held open until the listener closes, so only the bytes
			// can fail the handshake.
		}},
	} {
		t.Run(peer.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var conns []net.Conn
			var mu sync.Mutex
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
					go peer.serve(c)
				}
			}()
			defer func() {
				ln.Close()
				mu.Lock()
				for _, c := range conns {
					c.Close()
				}
				mu.Unlock()
			}()

			start := time.Now()
			client, err := Dial(ln.Addr().String())
			if err == nil {
				client.Close()
				t.Fatal("Dial succeeded against a peer that is not a cubeserver")
			}
			if d := time.Since(start); d > handshakeTimeout/2 {
				t.Fatalf("Dial took %v to fail; it must not wait out the handshake deadline", d)
			}
		})
	}
}
