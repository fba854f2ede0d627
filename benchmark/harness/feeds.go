package harness

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"artemis/benchmark/gen"
	"artemis/benchmark/wsfeed"
)

// writeTimeout bounds one write to a feed: a daemon that stops reading
// fails the run rather than wedging the generator.
const writeTimeout = 10 * time.Second

// feedConn hands the run the connection the daemon most recently opened
// to one of the harness's feed servers. The daemon is started several
// times per run (set-up is timed more than once); each start dials
// again, and only the newest connection carries load.
type feedConn struct {
	mu    sync.Mutex
	conn  net.Conn
	count int
	fresh chan struct{}
}

func newFeedConn() *feedConn { return &feedConn{fresh: make(chan struct{})} }

func (f *feedConn) set(c net.Conn) {
	f.mu.Lock()
	f.conn = c
	f.count++
	close(f.fresh)
	f.fresh = make(chan struct{})
	f.mu.Unlock()
}

// await returns the nth connection (1-based) once the daemon has made it.
func (f *feedConn) await(ctx context.Context, n int) (net.Conn, error) {
	for {
		f.mu.Lock()
		c, count, fresh := f.conn, f.count, f.fresh
		f.mu.Unlock()
		if count >= n {
			return c, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("daemon never opened feed connection %d", n)
		case <-fresh:
		}
	}
}

// write sends p with the feed write timeout.
func write(c net.Conn, p []byte) error {
	if err := c.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	_, err := c.Write(p)
	return err
}

// risServer is the RIS-Live endpoint: wsfeed completes the handshake and
// leaves the raw connection to the load generator, which writes
// pre-encoded frames.
type risServer struct {
	ln   net.Listener
	srv  *http.Server
	feed *feedConn
}

func startRISServer() (*risServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &risServer{ln: ln, feed: newFeedConn()}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.serve)}
	go s.srv.Serve(ln) // returns when Close closes the listener
	return s, nil
}

func (s *risServer) url() string { return "ws://" + s.ln.Addr().String() + "/v1/ws" }

func (s *risServer) serve(w http.ResponseWriter, r *http.Request) {
	conn, br, err := wsfeed.Accept(w, r)
	if err != nil {
		return
	}
	s.feed.set(conn)
	// Keep reading so a close from the daemon is noticed and its frames
	// do not pile up unread; nothing else is expected from a subscriber.
	for wsfeed.SkipFrame(br) == nil {
	}
	conn.Close()
}

func (s *risServer) close() { s.srv.Close() }

// bmpRouter is one BMP exporter: the station (the daemon) connects, the
// router greets it with Initiation and the Peer Up table, and the load
// generator then writes Route Monitoring messages.
type bmpRouter struct {
	ln       net.Listener
	greeting []byte
	feed     *feedConn
}

func startBMPRouter(greeting []byte) (*bmpRouter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &bmpRouter{ln: ln, greeting: greeting, feed: newFeedConn()}
	go r.accept()
	return r, nil
}

func (r *bmpRouter) addr() string { return r.ln.Addr().String() }

func (r *bmpRouter) accept() {
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if err := write(c, r.greeting); err != nil {
			c.Close()
			continue
		}
		r.feed.set(c)
	}
}

func (r *bmpRouter) close() {
	r.ln.Close()
	r.feed.mu.Lock()
	if r.feed.conn != nil {
		r.feed.conn.Close()
	}
	r.feed.mu.Unlock()
}

// makeFIFO creates the named pipe an mrt source reads and opens it for
// writing. Opening read-write never blocks, and holding the descriptor
// across daemon restarts lets each start's open succeed at once; closing
// it is end-of-file for the reader.
func makeFIFO(path string) (*os.File, error) {
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		return nil, fmt.Errorf("mkfifo %s: %w", path, err)
	}
	return os.OpenFile(path, os.O_RDWR, 0)
}

// streamWriter drives one bulk stream: the pre-encoded block, pass after
// pass, until deadline — but never less than one whole pass, because the
// first pass carries the embedded probes. A chunk goes out when the events
// before it are due at the stream's rate, counted from t0 whatever
// happened to the chunks before.
type streamWriter struct {
	s  *gen.Stream
	w  io.Writer
	to func(time.Time) error // sets the write deadline

	// sent and filtered count the events written and, of those, the ones
	// the daemon's client-side filter discards; offered and dropped are the
	// run-wide running totals of the same, read by the window sampler.
	sent, filtered   int
	offered, dropped *atomic.Int64
}

func (sw *streamWriter) run(t0, deadline time.Time) error {
	s := sw.s
	runtime.LockOSThread() // for sleepUntil
	defer runtime.UnlockOSThread()
	var scratch []byte
	for pass := uint32(0); ; pass++ {
		start := 0
		for i, end := range s.Chunks {
			due := t0.Add(time.Duration(sw.sent) * time.Second / time.Duration(s.Rate))
			if pass > 0 && !due.Before(deadline) {
				return nil
			}
			sleepUntil(due)
			chunk := s.Block[start:end]
			if pass > 0 {
				scratch = append(scratch[:0], chunk...)
				gen.ShiftTimes(scratch, s.MRT, pass*s.PassSeconds)
				chunk = scratch
			}
			if err := sw.to(time.Now().Add(writeTimeout)); err != nil {
				return err
			}
			if _, err := sw.w.Write(chunk); err != nil {
				return fmt.Errorf("write feed (pass %d, chunk %d): %w", pass, i, err)
			}
			sw.sent += s.ChunkEvents[i]
			sw.filtered += s.ChunkFiltered[i]
			sw.offered.Add(int64(s.ChunkEvents[i]))
			sw.dropped.Add(int64(s.ChunkFiltered[i]))
			start = end
		}
	}
}
