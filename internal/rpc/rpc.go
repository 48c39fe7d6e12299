package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"powerchief/internal/fault"
)

// MaxMessageSize bounds a single frame (16 MiB); larger frames abort the
// connection rather than exhausting memory.
const MaxMessageSize = 16 << 20

// Request is one RPC call on the wire.
type Request struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// Response answers a Request with the same ID. Code carries the stable
// fault-sentinel wire code (fault.Code) when the handler's error wraps a
// registered sentinel, so the client can restore sentinel identity; it is
// omitted for plain application errors, keeping the frame layout
// backward-compatible with peers that predate it.
type Response struct {
	ID     uint64          `json:"id"`
	Error  string          `json:"error,omitempty"`
	Code   string          `json:"code,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// writeFrame writes one length-prefixed JSON document.
func writeFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: encoding frame: %w", err)
	}
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// frameChunk caps the payload buffer readFrame commits before the bytes
// arrive. A header may claim up to MaxMessageSize, but the buffer only
// doubles as the peer actually delivers, so a 4-byte header cannot make
// the reader allocate 16 MiB.
const frameChunk = 64 << 10

// readFrame reads one length-prefixed JSON document into v.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxMessageSize {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	payload := make([]byte, min(n, frameChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if off = len(payload); off == n {
			break
		}
		payload = append(payload, make([]byte, min(n-off, off))...)
	}
	return json.Unmarshal(payload, v)
}

// Handler serves one method. Params hold the caller's JSON-encoded argument;
// the returned value is JSON-encoded as the result.
type Handler func(params json.RawMessage) (any, error)

// Server dispatches framed requests to registered handlers. Each connection
// gets a reader goroutine; each request is handled on its own goroutine so a
// slow method does not block the connection.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	lnMu     sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler), conns: make(map[net.Conn]struct{})}
}

// Handle registers a method handler. Registering a duplicate method panics —
// it is always a programming error.
func (s *Server) Handle(method string, h Handler) {
	if method == "" || h == nil {
		panic("rpc: Handle requires a method name and handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("rpc: duplicate handler for " + method)
	}
	s.handlers[method] = h
}

// HandleFunc registers a typed handler: fn takes the decoded params and
// returns the result. P must be JSON-decodable.
func HandleFunc[P any, R any](s *Server, method string, fn func(P) (R, error)) {
	s.Handle(method, func(raw json.RawMessage) (any, error) {
		var p P
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("rpc: bad params for %s: %w", method, err)
			}
		}
		return fn(p)
	})
}

// Listen starts accepting connections on addr and returns the bound
// address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return "", errors.New("rpc: server closed")
	}
	s.listener = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var writeMu sync.Mutex
	for {
		var req Request
		if err := readFrame(r, &req); err != nil {
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[req.Method]
		s.mu.RUnlock()
		go func(req Request) {
			resp := Response{ID: req.ID}
			if !ok {
				resp.Error = "rpc: unknown method " + req.Method
			} else if result, err := h(req.Params); err != nil {
				resp.Error = err.Error()
				resp.Code = fault.Code(err)
			} else if result != nil {
				payload, err := json.Marshal(result)
				if err != nil {
					resp.Error = "rpc: encoding result: " + err.Error()
				} else {
					resp.Result = payload
				}
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			_ = writeFrame(conn, resp)
		}(req)
	}
}

// Close stops the listener and all connections, waiting for in-flight
// handlers to finish.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}

// Sentinel transport errors. Both are connection-level conditions — a
// *ServerError, by contrast, is an application-level failure reported by a
// reachable, healthy peer.
var (
	// ErrTimeout marks a call that exceeded its deadline. The connection
	// stays open (a late response is discarded by ID), but callers should
	// treat repeated timeouts as a sign the peer is hung.
	ErrTimeout = errors.New("rpc: call timed out")
	// ErrBroken marks a client whose connection has failed; Redial restores
	// it.
	ErrBroken = errors.New("rpc: connection broken")
	// ErrClosed marks a client closed by its owner; it cannot be redialed.
	ErrClosed = errors.New("rpc: client closed")
)

// ServerError is an application error returned by the remote handler. It is
// never retried: the request reached the peer and was answered. Code carries
// the fault-sentinel wire code when the remote error wrapped one; Unwrap
// resolves it, so errors.Is(err, fault.ErrStageDown) holds across the wire.
type ServerError struct {
	Msg  string
	Code string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Unwrap restores sentinel identity from the wire code: the returned error
// is the registered fault sentinel, or nil for plain application errors and
// codes this build does not know.
func (e *ServerError) Unwrap() error { return fault.FromCode(e.Code) }

// IsTransient reports whether err is a transport-level failure — a timeout,
// a broken or closed connection, a dial or I/O error — for which retrying an
// idempotent call may succeed. Application errors (*ServerError) are not
// transient.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	return !errors.As(err, &se)
}

// ClientOptions tunes a client's deadlines and retry behaviour.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds every Call unless overridden per call with
	// CallDeadline. Zero means no deadline (the seed behaviour).
	CallTimeout time.Duration
	// Retry governs CallRetry for idempotent methods.
	Retry RetryPolicy
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// callResult is what a pending call receives: a decoded response or a
// transport error.
type callResult struct {
	resp Response
	err  error
}

// Client is a pipelined RPC client over one TCP connection. Safe for
// concurrent use. A connection failure marks the client broken — every
// pending and future call fails fast with ErrBroken — until Redial
// re-establishes it.
type Client struct {
	addr string
	opts ClientOptions

	writeMu sync.Mutex
	nextID  uint64

	mu      sync.Mutex
	conn    net.Conn
	gen     int // bumped by Redial so a stale readLoop cannot break the new conn
	pending map[uint64]chan callResult
	err     error
	closed  bool
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialTimeout connects with a dial timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, ClientOptions{DialTimeout: timeout})
}

// DialOptions connects with full client options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, opts: opts, conn: conn, pending: make(map[uint64]chan callResult)}
	go c.readLoop(conn, c.gen)
	return c, nil
}

// Broken reports whether the connection has failed (and the client is not
// closed). A broken client can be restored with Redial.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil && !c.closed
}

// Redial drops the broken connection and establishes a fresh one to the same
// address. Pending calls on the old connection have already failed; calls
// issued after Redial returns use the new connection. Redialing a healthy
// client replaces its connection. A closed client cannot be redialed.
func (c *Client) Redial() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	old := c.conn
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	// Abort anything still pending on the old connection, then swap.
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: fmt.Errorf("%w: replaced by redial", ErrBroken)}
	}
	c.conn = conn
	c.gen++
	gen := c.gen
	c.err = nil
	c.mu.Unlock()

	if old != nil {
		old.Close()
	}
	go c.readLoop(conn, gen)
	return nil
}

func (c *Client) readLoop(conn net.Conn, gen int) {
	r := bufio.NewReader(conn)
	for {
		var resp Response
		if err := readFrame(r, &resp); err != nil {
			c.fail(gen, fmt.Errorf("%w: %v", ErrBroken, err))
			return
		}
		c.mu.Lock()
		if gen != c.gen {
			c.mu.Unlock()
			return // a redial superseded this connection
		}
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			ch <- callResult{resp: resp}
		}
	}
}

// fail aborts every pending call with err, provided gen still names the
// current connection (a stale readLoop must not break a redialed client).
func (c *Client) fail(gen int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.err != nil {
		return
	}
	c.failLocked(err)
}

// failLocked records err as the client error and aborts every pending call
// with it; the caller holds c.mu.
func (c *Client) failLocked(err error) {
	c.err = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: err}
	}
}

// Call invokes method with params and decodes the result into result (which
// may be nil to discard it). It blocks until the response arrives, the
// connection fails, or the client's CallTimeout (if configured) elapses.
func (c *Client) Call(method string, params any, result any) error {
	return c.CallDeadline(method, params, result, c.opts.CallTimeout)
}

// CallDeadline is Call with an explicit per-call deadline. timeout <= 0
// means no deadline. On timeout the call returns an error wrapping
// ErrTimeout; the connection stays open and a late response is discarded.
func (c *Client) CallDeadline(method string, params any, result any, timeout time.Duration) error {
	var raw json.RawMessage
	if params != nil {
		payload, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("rpc: encoding params: %w", err)
		}
		raw = payload
	}
	ch := make(chan callResult, 1)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	conn := c.conn
	gen := c.gen
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := writeFrame(conn, Request{ID: id, Method: method, Params: raw})
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A failed write means the connection is dead for everyone, not just
		// this call: mark the client broken immediately (scoped to this
		// connection's generation) so the caller's next exchange redials
		// instead of writing into the same dead socket.
		werr := fmt.Errorf("%w: %v", ErrBroken, err)
		c.fail(gen, werr)
		return werr
	}

	var res callResult
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case res = <-ch:
		case <-timer.C:
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			// The response may have been delivered between the timer firing
			// and the delete; prefer it if so.
			select {
			case res = <-ch:
			default:
				return fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
			}
		}
	} else {
		res = <-ch
	}

	if res.err != nil {
		return res.err
	}
	if res.resp.Error != "" {
		return &ServerError{Msg: res.resp.Error, Code: res.resp.Code}
	}
	if result != nil && len(res.resp.Result) > 0 {
		return json.Unmarshal(res.resp.Result, result)
	}
	return nil
}

// Close tears the connection down, failing pending calls. The client cannot
// be redialed afterwards. ErrClosed is recorded before the connection closes,
// so the read loop's ErrBroken cannot land first and every later call
// reports ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.failLocked(ErrClosed)
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}
