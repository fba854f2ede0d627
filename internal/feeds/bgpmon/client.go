package bgpmon

import (
	"encoding/xml"
	"net"

	"artemis/internal/feeds/feedtypes"
)

// Client consumes a BGPmon server's XML stream, applying a prefix filter
// locally (the server streams everything, as BGPmon did). It decodes on
// the goroutine that calls Recv.
type Client struct {
	conn   net.Conn
	dec    *xml.Decoder
	filter feedtypes.Filter
	batch  []feedtypes.Event
}

// DialClient connects to a Server.
func DialClient(addr string, f feedtypes.Filter) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, dec: xml.NewDecoder(conn), filter: f}, nil
}

// Recv decodes messages until one yields events that pass the filter and
// returns those events. The batch is reused: it is valid until the next
// Recv. The end of the stream returns io.EOF; a message that fails to
// decode returns its error.
func (c *Client) Recv() ([]feedtypes.Event, error) {
	for {
		var m xmlMessage
		if err := c.dec.Decode(&m); err != nil {
			return nil, err
		}
		evs, err := xmlToEvents(m)
		if err != nil {
			return nil, err
		}
		c.batch = c.batch[:0]
		for _, ev := range evs {
			if c.filter.Match(ev.Prefix) {
				c.batch = append(c.batch, ev)
			}
		}
		if len(c.batch) > 0 {
			return c.batch, nil
		}
	}
}

// Close disconnects, unblocking a pending Recv.
func (c *Client) Close() error { return c.conn.Close() }
