package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/wire"
)

// TCP timing and sizing.
const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// WriteTimeout bounds each frame write; a peer that stops draining
	// its socket for this long is dropped rather than wedging its writer.
	WriteTimeout = 10 * time.Second
	// frameQueueLen is the per-conn frame queue between Send and the
	// socket writer: enough to coalesce a burst of small frames into one
	// flush (senders queue in internal/peer, not here).
	frameQueueLen = 64
)

// TCP is the socket Transport. The zero value is usable.
type TCP struct {
	// ReadTimeout, when positive, bounds the wait for each inbound
	// frame. Under the hello protocol peers beacon every second, so a
	// few multiples of the liveness window is a sensible value; zero
	// means Recv waits forever (liveness is then the session layer's
	// job).
	ReadTimeout time.Duration
}

// Listen binds a TCP listener on addr (host:port; ":0" picks a free
// port, recovered via Addr).
func (t *TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{t: t, ln: ln}, nil
}

// Dial connects to addr.
func (t *TCP) Dial(ctx context.Context, addr string) (Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return t.newConn(c), nil
}

type tcpListener struct {
	t    *TCP
	ln   net.Listener
	once sync.Once
}

func (l *tcpListener) Accept(ctx context.Context) (Conn, error) {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := l.ln.(deadliner); ok {
		// Wake a blocked Accept when ctx ends, then clear the poison
		// deadline for the next call.
		stop := context.AfterFunc(ctx, func() { d.SetDeadline(time.Now()) })
		defer func() {
			stop()
			d.SetDeadline(time.Time{})
		}()
	}
	c, err := l.ln.Accept()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return l.t.newConn(c), nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func (l *tcpListener) Close() error {
	var err error
	l.once.Do(func() { err = l.ln.Close() })
	return err
}

// tcpConn frames wire messages over one socket. Sends go through a
// bounded queue drained by a single writer goroutine, which keeps frames
// whole and flushes a burst of them with one write; receives read
// directly (Recv is single-goroutine by contract).
type tcpConn struct {
	t    *TCP
	c    net.Conn
	br   *bufio.Reader
	sq   chan []byte
	done chan struct{}
	once sync.Once

	mu       sync.Mutex
	writeErr error
}

func (t *TCP) newConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn := &tcpConn{
		t:    t,
		c:    c,
		br:   bufio.NewReaderSize(c, 64*1024),
		sq:   make(chan []byte, frameQueueLen),
		done: make(chan struct{}),
	}
	go conn.writeLoop()
	return conn
}

// writeLoop drains the send queue; a write failure or timeout closes the
// connection so both directions observe the death.
func (c *tcpConn) writeLoop() {
	bw := bufio.NewWriterSize(c.c, 64*1024)
	for {
		var frame []byte
		select {
		case frame = <-c.sq:
		case <-c.done:
			return
		}
		c.c.SetWriteDeadline(time.Now().Add(WriteTimeout))
		err := writeFrame(bw, frame)
		// Flush unless more frames are already queued (batch small
		// beacons, but never hold a frame hostage).
		if err == nil && len(c.sq) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			c.mu.Lock()
			c.writeErr = err
			c.mu.Unlock()
			c.Close()
			return
		}
	}
}

func (c *tcpConn) Send(ctx context.Context, m wire.Msg) error {
	frame := wire.Encode(m)
	select {
	case c.sq <- frame:
		return nil
	case <-c.done:
		c.mu.Lock()
		werr := c.writeErr
		c.mu.Unlock()
		if werr != nil {
			return fmt.Errorf("%w: %w", ErrClosed, werr)
		}
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *tcpConn) Recv(ctx context.Context) (wire.Msg, error) {
	for {
		select {
		case <-c.done:
			return nil, ErrClosed
		default:
		}
		if c.t.ReadTimeout > 0 {
			c.c.SetReadDeadline(time.Now().Add(c.t.ReadTimeout))
		} else {
			c.c.SetReadDeadline(time.Time{})
		}
		// Wake a blocked read when ctx ends.
		stop := context.AfterFunc(ctx, func() { c.c.SetReadDeadline(time.Now()) })
		frame, err := readFrame(c.br)
		stop()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			select {
			case <-c.done:
				return nil, ErrClosed
			default:
			}
			if os.IsTimeout(err) {
				c.Close()
				return nil, fmt.Errorf("transport: read timeout: %w", err)
			}
			c.Close()
			return nil, err
		}
		m, err := decodeFrame(frame)
		if err != nil {
			c.Close()
			return nil, err
		}
		if m == nil {
			continue // malformed body inside a good frame: resync
		}
		return m, nil
	}
}

func (c *tcpConn) Close() error {
	var err error
	c.once.Do(func() {
		close(c.done)
		err = c.c.Close()
	})
	return err
}

func (c *tcpConn) LocalAddr() string  { return c.c.LocalAddr().String() }
func (c *tcpConn) RemoteAddr() string { return c.c.RemoteAddr().String() }
