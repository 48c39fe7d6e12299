package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"powerchief/internal/rpc"
)

// relay is a pass-through TCP proxy in front of one stage service, used in
// traced dist runs only. It forwards the rpc framing — a 4-byte big-endian
// length, then a JSON payload — unchanged, and counts calls and bytes and
// times each call's round trip by its request id.
type relay struct {
	ln     net.Listener
	target string
	tr     *tracer

	calls atomic.Int64
	bytes atomic.Int64

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func startRelay(target string, tr *tracer) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, tr: tr}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		if !r.track(down, up) {
			down.Close()
			up.Close()
			return
		}
		inflight := &pendingCalls{started: make(map[uint64]time.Time)}
		r.wg.Add(2)
		go r.pump(down, up, inflight, true)
		go r.pump(up, down, inflight, false)
	}
}

func (r *relay) track(cs ...net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns = append(r.conns, cs...)
	return true
}

// pump copies frames from src to dst until either side closes, then closes
// dst so the other direction ends too.
func (r *relay) pump(src, dst net.Conn, inflight *pendingCalls, requests bool) {
	defer r.wg.Done()
	defer dst.Close()
	in := bufio.NewReader(src)
	buf := make([]byte, 4, 4096)
	for {
		if _, err := io.ReadFull(in, buf[:4]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(buf[:4]))
		if n > rpc.MaxMessageSize {
			return
		}
		if cap(buf) < 4+n {
			buf = append(buf[:4], make([]byte, n)...)
		}
		frame := buf[:4+n]
		if _, err := io.ReadFull(in, frame[4:]); err != nil {
			return
		}
		now := time.Now()
		if id, ok := frameID(frame[4:]); ok {
			if requests {
				inflight.start(id, now)
			} else if t0, found := inflight.finish(id); found {
				r.tr.leaf("rpc.call", int64(id), t0, now)
			}
		}
		if requests {
			r.calls.Add(1)
		}
		r.bytes.Add(int64(len(frame)))
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// close stops accepting, closes every relayed connection and waits for the
// pumps to exit.
func (r *relay) close() {
	r.mu.Lock()
	r.closed = true
	conns := r.conns
	r.mu.Unlock()
	r.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}

// pendingCalls maps the request ids in flight on one connection to the
// time the relay forwarded them.
type pendingCalls struct {
	mu      sync.Mutex
	started map[uint64]time.Time
}

func (p *pendingCalls) start(id uint64, at time.Time) {
	p.mu.Lock()
	p.started[id] = at
	p.mu.Unlock()
}

func (p *pendingCalls) finish(id uint64) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.started[id]
	delete(p.started, id)
	return t, ok
}

// frameID reads the leading "id" field of an rpc request or response,
// which both encode first.
func frameID(payload []byte) (uint64, bool) {
	const prefix = `{"id":`
	if len(payload) <= len(prefix) || string(payload[:len(prefix)]) != prefix {
		return 0, false
	}
	var id uint64
	digits := 0
	for _, c := range payload[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
		digits++
	}
	return id, digits > 0
}
