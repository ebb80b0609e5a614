package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
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
)

// TCP is the socket Transport. The zero value is usable. Recv waits for
// as long as its context lets it: liveness is the session layer's job.
type TCP struct{}

// Listen binds a TCP listener on addr (host:port; ":0" picks a free
// port, recovered via Addr).
func (t *TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln}, nil
}

// Dial connects to addr.
func (t *TCP) Dial(ctx context.Context, addr string) (Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
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
	return newTCPConn(c), nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

func (l *tcpListener) Close() error {
	var err error
	l.once.Do(func() { err = l.ln.Close() })
	return err
}

// tcpConn frames wire messages over one socket. Send writes each frame
// through on its caller's goroutine; Recv reads through a buffer. Each
// is called from one goroutine at a time, by contract, which is what lets
// Send keep its frame writer in the conn.
type tcpConn struct {
	c    net.Conn
	br   *bufio.Reader
	fw   frameWriter
	done chan struct{}
	once sync.Once
}

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, 64*1024), done: make(chan struct{})}
}

// Send writes one frame under WriteTimeout, waking early when ctx ends.
// A failed write may have cut the frame off, so it closes the conn and
// both directions observe the death.
func (c *tcpConn) Send(ctx context.Context, m wire.Msg) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.c.SetWriteDeadline(time.Now().Add(WriteTimeout))
	stop := context.AfterFunc(ctx, func() { c.c.SetWriteDeadline(time.Now()) })
	err := c.fw.write(c.c, m)
	stop()
	if err == nil {
		return nil
	}
	c.Close()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %w", ErrClosed, err)
}

func (c *tcpConn) Recv(ctx context.Context) (wire.Msg, error) {
	for {
		select {
		case <-c.done:
			return nil, ErrClosed
		default:
		}
		c.c.SetReadDeadline(time.Time{})
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
