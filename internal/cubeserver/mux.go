package cubeserver

// mux.go is the client side of the v2 protocol: one connection shared
// by any number of concurrent Do calls. A writer goroutine drains a
// frame channel and a reader goroutine routes response frames through
// an in-flight table keyed by request ID, so N callers pipeline their
// requests instead of queueing on a client mutex.
//
// Failure model: the first transport error poisons the connection.
// Every call in flight at that moment is aborted with the raw error;
// if none was, the next Do reports the raw error once. All later calls
// fail fast with ErrClientBroken: exactly one caller sees what actually
// broke and the rest are told to reconnect.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// errClientClosed poisons a mux torn down by Close rather than by a
// transport failure.
var errClientClosed = errors.New("cubeserver: client closed")

type muxResult struct {
	frame []byte // pooled response frame; body at frame[frameMetaLen:]
	err   error
}

type muxConn struct {
	conn    net.Conn
	br      *bufio.Reader
	nextID  atomic.Uint64
	writeCh chan []byte
	done    chan struct{}

	mu          sync.Mutex
	inflight    map[uint64]chan muxResult
	err         error // first transport error; latched
	rawReported bool  // the raw error has been handed to some caller
	closed      bool
}

func newMuxConn(conn net.Conn) *muxConn {
	m := &muxConn{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 64<<10),
		writeCh:  make(chan []byte),
		done:     make(chan struct{}),
		inflight: make(map[uint64]chan muxResult),
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

func (m *muxConn) writeLoop() {
	for {
		select {
		case buf := <-m.writeCh:
			_, err := m.conn.Write(buf)
			putBuf(buf)
			if err != nil {
				m.poison(err)
				return
			}
		case <-m.done:
			return
		}
	}
}

func (m *muxConn) readLoop() {
	for {
		ftype, id, frame, _, _, err := readFrame(m.br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("cubeserver: connection closed")
			}
			m.poison(err)
			return
		}
		if ftype != frameResponse {
			putBuf(frame)
			m.poison(fmt.Errorf("cubeserver: unexpected frame type %d", ftype))
			return
		}
		m.mu.Lock()
		ch, ok := m.inflight[id]
		delete(m.inflight, id)
		m.mu.Unlock()
		if !ok {
			// A response nobody asked for means the stream is desynced;
			// nothing decoded after this point can be trusted.
			putBuf(frame)
			m.poison(fmt.Errorf("cubeserver: response for unknown request id %d", id))
			return
		}
		ch <- muxResult{frame: frame}
	}
}

// poison latches the first transport error, tears the connection down
// and aborts every in-flight call with the raw error.
func (m *muxConn) poison(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	raw := m.err
	waiters := m.inflight
	m.inflight = make(map[uint64]chan muxResult)
	if len(waiters) > 0 {
		// Some caller is about to receive the raw error; later calls get
		// ErrClientBroken.
		m.rawReported = true
	}
	alreadyClosed := m.closed
	m.closed = true
	m.mu.Unlock()
	if !alreadyClosed {
		close(m.done)
		m.conn.Close()
	}
	for _, ch := range waiters {
		ch <- muxResult{err: raw}
	}
}

// brokenErrLocked returns the error a new call should see on a
// poisoned connection: the raw transport error exactly once, then
// ErrClientBroken wrapping it. Callers hold m.mu.
func (m *muxConn) brokenErrLocked() error {
	if !m.rawReported {
		m.rawReported = true
		return m.err
	}
	return fmt.Errorf("%w: %v", ErrClientBroken, m.err)
}

func (m *muxConn) broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err != nil
}

// close is idempotent and safe concurrently with in-flight do calls,
// which abort with the teardown error.
func (m *muxConn) close() error {
	m.mu.Lock()
	if m.err == nil {
		m.err = errClientClosed
		// An explicit close is not a surprise worth reporting raw; later
		// calls go straight to ErrClientBroken.
		m.rawReported = true
	}
	m.mu.Unlock()
	m.poison(errClientClosed)
	return nil
}

func (m *muxConn) do(req *Request) (*Response, error) {
	id := m.nextID.Add(1)
	ch := make(chan muxResult, 1)

	m.mu.Lock()
	if m.err != nil {
		err := m.brokenErrLocked()
		m.mu.Unlock()
		return nil, err
	}
	m.inflight[id] = ch
	m.mu.Unlock()

	buf := encodeRequestFrame(getBuf(), id, req)
	select {
	case m.writeCh <- buf:
	case <-m.done:
		putBuf(buf)
		// poison takes every in-flight entry (ours was registered while
		// m.err was nil) before it closes done, and sends each a verdict
		// — ours may be the one raw transport error. Wait for it below
		// like a caller whose request was sent: polling ch here loses it
		// to the gap between poison taking the entry and sending.
	}

	res := <-ch
	if res.err != nil {
		return nil, res.err
	}
	resp := new(Response)
	err := DecodeResponseV2(res.frame[frameMetaLen:], resp)
	putBuf(res.frame)
	if err != nil {
		// A frame that parses as a frame but not as a response is a
		// protocol breach; kill the session and report it raw here.
		m.poison(err)
		m.mu.Lock()
		m.rawReported = true
		m.mu.Unlock()
		return nil, err
	}
	return resp, nil
}
