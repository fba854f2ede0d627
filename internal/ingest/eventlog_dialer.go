package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
)

// EventLogReplay tunes an event-log replay source.
type EventLogReplay struct {
	// Speed is the time-compression factor: 1 replays at the recorded
	// cadence, 16 at sixteen times it. Zero (or negative) replays as
	// fast as possible. Pacing uses the gap between recorded EmittedAt
	// clocks; the events themselves keep their recorded times either
	// way, so dedup TTLs and quota windows — which run on event time —
	// behave identically at any speed.
	Speed float64
}

// EventLogReplayDialer replays an event-log archive (as written by
// eventlog.Writer / the -record sink) as one finite source ending in
// ErrDone. open is called on every (re)dial, so an interrupted replay
// restarts from the top. Combine with Blocking so the replay is
// flow-controlled instead of shed.
func EventLogReplayDialer(open func() (io.ReadCloser, error), cfg EventLogReplay) Dialer {
	return DialFunc(func() (Conn, error) {
		rc, err := open()
		if err != nil {
			return nil, err
		}
		return &evlogConn{
			rc:     rc,
			r:      eventlog.NewReader(rc),
			speed:  cfg.Speed,
			closed: make(chan struct{}),
		}, nil
	})
}

// EventLogFileDialer replays the rotated segment files matching the
// glob pattern (e.g. "capture-*.evlog"), concatenated in name order —
// the order the recorder wrote them, since segment numbers are
// zero-padded. A pattern matching nothing is a dial error, retried with
// backoff, so a replay can be started before its capture finishes
// rotating the first segment out.
func EventLogFileDialer(pattern string, cfg EventLogReplay) Dialer {
	return EventLogReplayDialer(func() (io.ReadCloser, error) {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("eventlog: no segments match %q", pattern)
		}
		sort.Strings(paths)
		return &chainReader{paths: paths}, nil
	}, cfg)
}

type evlogConn struct {
	rc    io.ReadCloser
	r     *eventlog.Reader
	speed float64

	closed    chan struct{}
	closeOnce sync.Once

	// Pacing anchors the first record's event time to the wall clock;
	// every later record is due (EmittedAt-base)/speed after that.
	started bool
	base    time.Duration
	start   time.Time

	// pending holds a record read ahead of its due time, returned with
	// the next batch. Its path lives in pendingPath, not in batch's
	// arena, which the next Recv resets before pending is delivered.
	pending     feedtypes.Event
	pendingPath []bgp.ASN
	havePending bool

	// batch is the reused per-Recv batch (Conn contract: valid until the
	// next Recv); records are decoded straight into it.
	batch feedtypes.Batch
}

func (c *evlogConn) Recv() ([]feedtypes.Event, error) {
	b := &c.batch
	b.Reset()
	for {
		if c.havePending {
			c.havePending = false
			b.AppendCopy(c.pending)
		} else if _, err := c.r.NextInto(b); err == io.EOF {
			if len(b.Events) > 0 {
				return b.Events, nil
			}
			return nil, ErrDone
		} else if err != nil {
			return nil, err
		}
		ev := &b.Events[len(b.Events)-1]
		if c.speed > 0 {
			if !c.started {
				c.started, c.base, c.start = true, ev.EmittedAt, time.Now()
			}
			wait := time.Duration(float64(ev.EmittedAt-c.base)/c.speed) - time.Since(c.start)
			if wait > 0 {
				if len(b.Events) > 1 {
					// Deliver what is due; the read-ahead record waits for
					// its own time on the next Recv.
					c.pending, c.havePending = *ev, true
					if len(ev.Path) > 0 {
						c.pendingPath = append(c.pendingPath[:0], ev.Path...)
						c.pending.Path = c.pendingPath
					}
					b.Events = b.Events[:len(b.Events)-1]
					return b.Events, nil
				}
				if !c.sleep(wait) {
					return nil, errors.New("eventlog: replay closed")
				}
			}
		}
		if len(b.Events) >= maxRecvBatch {
			return b.Events, nil
		}
	}
}

// sleep waits d unless the conn is closed first — Remove/Close must not
// hang behind a long recorded gap.
func (c *evlogConn) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closed:
		return false
	case <-t.C:
		return true
	}
}

func (c *evlogConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.rc.Close()
}

// chainReader concatenates files, opening each lazily so a replay over
// many rotated segments holds one descriptor at a time.
type chainReader struct {
	paths []string
	cur   io.ReadCloser
}

func (c *chainReader) Read(p []byte) (int, error) {
	for {
		if c.cur == nil {
			if len(c.paths) == 0 {
				return 0, io.EOF
			}
			f, err := os.Open(c.paths[0])
			if err != nil {
				return 0, err
			}
			c.paths = c.paths[1:]
			c.cur = f
		}
		n, err := c.cur.Read(p)
		if err == io.EOF {
			c.cur.Close()
			c.cur = nil
			if n > 0 {
				return n, nil
			}
			continue
		}
		return n, err
	}
}

func (c *chainReader) Close() error {
	if c.cur != nil {
		err := c.cur.Close()
		c.cur = nil
		return err
	}
	return nil
}
