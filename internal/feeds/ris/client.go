package ris

import (
	"encoding/json"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/wsock"
)

// maxBatch bounds the events one Recv returns, the bound the ingest
// supervisor's other dialers coalesce to.
const maxBatch = 256

// Conn is a subscription to a RIS server over WebSocket, decoded on the
// goroutine that calls Recv: there is no reader goroutine and no
// per-event hand-off. It satisfies the ingest supervisor's Conn contract
// as is.
type Conn struct {
	ws    *wsock.Conn
	dec   decoder
	batch feedtypes.Batch
}

// Dial connects to url (ws://host:port/path) and subscribes with f.
func Dial(url string, f feedtypes.Filter) (*Conn, error) {
	ws, err := wsock.Dial(url)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(filterToWire(f))
	if err != nil {
		ws.Close()
		return nil, err
	}
	if err := ws.WriteMessage(wsock.OpText, b); err != nil {
		ws.Close()
		return nil, err
	}
	return &Conn{ws: ws}, nil
}

// Recv blocks for the next message and returns it decoded, together with
// every further message already buffered whole — so the batch is as wide
// as the burst that arrived, up to maxBatch, and Recv never waits on the
// network once it holds an event. The batch and its paths are reused: they
// are valid until the next Recv. A message that fails to decode ends the
// stream: Recv returns the events before it with the error.
func (c *Conn) Recv() ([]feedtypes.Event, error) {
	c.batch.Reset()
	for {
		_, msg, err := c.ws.ReadMessage()
		if err == nil {
			err = c.dec.decode(msg, &c.batch)
		}
		if err != nil || len(c.batch.Events) >= maxBatch || !c.ws.MessageBuffered() {
			return c.batch.Events, err
		}
	}
}

// Close tears down the connection, unblocking a pending Recv.
func (c *Conn) Close() error { return c.ws.Close() }

// Client is a Conn that surfaces its events one at a time on a channel,
// for tests and tools that want a stream rather than batches. The ingest
// supervisor reads a Conn directly.
type Client struct {
	conn   *Conn
	events chan feedtypes.Event
	errs   chan error
}

// DialClient connects to url (ws://host:port/path), subscribes with f, and
// starts streaming.
func DialClient(url string, f feedtypes.Filter) (*Client, error) {
	conn, err := Dial(url, f)
	if err != nil {
		return nil, err
	}
	// The buffer lets the reader decode a burst ahead of a consumer that
	// takes events one by one; a full Recv batch fits.
	c := &Client{conn: conn, events: make(chan feedtypes.Event, maxBatch), errs: make(chan error, 1)}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.events)
	for {
		evs, err := c.conn.Recv()
		// Recv reuses its batch, so the events leave with paths of their
		// own: one slab per batch.
		n := 0
		for i := range evs {
			n += len(evs[i].Path)
		}
		slab := make([]bgp.ASN, 0, n)
		for _, ev := range evs {
			if len(ev.Path) > 0 {
				start := len(slab)
				slab = append(slab, ev.Path...)
				ev.Path = slab[start:len(slab):len(slab)]
			}
			c.events <- ev
		}
		if err != nil {
			c.errs <- err
			return
		}
	}
}

// Events returns the stream of decoded events. The channel closes when the
// connection ends; Err then reports why.
func (c *Client) Events() <-chan feedtypes.Event { return c.events }

// Err returns the terminal error after Events closes, if any.
func (c *Client) Err() error {
	select {
	case err := <-c.errs:
		return err
	default:
		return nil
	}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }
