package ingest

import (
	"context"
	"errors"
	"fmt"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/feeds/periscope"
	"artemis/internal/prefix"
)

// PeriscopeConfig tunes a PeriscopeDialer.
type PeriscopeConfig struct {
	// LGs selects the looking glasses to poll by id ("lg-1001"). Empty
	// discovers the server's full inventory at every (re)dial.
	LGs []string
	// Filter supplies the watch list; its Prefixes are queried at each
	// poll. Re-read every round, so hot-added owned prefixes are picked up
	// at the next poll without a reconnect.
	Filter FilterFunc
	// PollInterval is the per-round poll period — the Periscope rate
	// limit. Default 3 minutes, matching the in-process service.
	PollInterval time.Duration
	// Now supplies event timestamps (the daemon's clock). Default: wall
	// time since the first poll.
	Now func() time.Duration
}

// PeriscopeDialer returns a Dialer that polls a Periscope-style REST
// looking-glass aggregation server (internal/feeds/periscope.Server) and
// turns answer changes into feed events — the fourth transport next to
// the RIS websocket, BGPmon TCP and MRT replay dialers. A looking glass
// reads an operational router directly, so events carry no pipeline
// latency: SeenAt equals EmittedAt equals the poll time, and the delay
// profile is the polling schedule.
//
// Each poll round queries every selected LG for every watched prefix,
// diffs the answers against the previous round, and delivers one batch
// per round of changes: new or re-pathed routes as announcements,
// disappeared answers as withdrawals. An HTTP failure ends the stream
// (the supervisor redials with backoff); the fresh connection re-announces
// the current view, which the cross-source dedup and the detector's
// incident dedup absorb.
func PeriscopeDialer(baseURL string, cfg PeriscopeConfig) Dialer {
	if cfg.Filter == nil {
		cfg.Filter = StaticFilter(feedtypes.Filter{})
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 3 * time.Minute
	}
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	return DialFunc(func() (Conn, error) {
		lgs := cfg.LGs
		if len(lgs) == 0 {
			var err error
			lgs, err = periscope.HTTPListLGs(context.Background(), baseURL)
			if err != nil {
				return nil, fmt.Errorf("ingest: periscope %s: list LGs: %w", baseURL, err)
			}
		}
		if len(lgs) == 0 {
			return nil, fmt.Errorf("ingest: periscope %s: no looking glasses", baseURL)
		}
		ctx, cancel := context.WithCancel(context.Background())
		return &periscopeConn{
			base:   baseURL,
			lgs:    lgs,
			cfg:    cfg,
			state:  make(map[string]lgAnswer),
			ctx:    ctx,
			cancel: cancel,
		}, nil
	})
}

// lgAnswer is the remembered answer for one (lg, watched, answered
// prefix) key: the path signature for change detection and the vantage
// point so a later withdrawal can be attributed.
type lgAnswer struct {
	sig string
	vp  bgp.ASN
}

type periscopeConn struct {
	base  string
	lgs   []string
	cfg   PeriscopeConfig
	state map[string]lgAnswer
	first bool
	// ctx carries every query; Close cancels it, abandoning the one in
	// flight.
	ctx    context.Context
	cancel context.CancelFunc
	// buf is the reused per-round change batch (Conn contract: the batch
	// a Recv returns is valid only until the next Recv).
	buf []feedtypes.Event
}

// errPeriscopeClosed reports a Recv interrupted by Close.
var errPeriscopeClosed = errors.New("ingest: periscope source closed")

// Recv blocks until a poll round observes changes, then returns them as
// one batch (announcements and withdrawals in LG order).
func (c *periscopeConn) Recv() ([]feedtypes.Event, error) {
	for {
		if c.first {
			t := time.NewTimer(c.cfg.PollInterval)
			select {
			case <-c.ctx.Done():
				t.Stop()
				return nil, errPeriscopeClosed
			case <-t.C:
			}
		}
		c.first = true
		batch, err := c.poll()
		if c.ctx.Err() != nil {
			return nil, errPeriscopeClosed
		}
		if err != nil {
			return nil, err
		}
		if len(batch) > 0 {
			return batch, nil
		}
	}
}

// poll runs one round over every LG and watched prefix.
func (c *periscopeConn) poll() ([]feedtypes.Event, error) {
	watch := c.cfg.Filter().Prefixes
	now := c.cfg.Now()
	changed := c.buf[:0]
	defer func() { c.buf = changed }()
	for _, lgID := range c.lgs {
		for _, watched := range watch {
			answers, err := periscope.HTTPQuery(c.ctx, c.base, lgID, watched)
			if err != nil {
				return nil, err
			}
			current := map[string]bool{}
			for _, a := range answers {
				key := lgID + "|" + watched.String() + "|" + a.Prefix.String()
				current[key] = true
				var vp bgp.ASN
				if len(a.Path) > 0 {
					vp = a.Path[0] // Query prepends the LG's own ASN
				}
				sig := pathSig(a.Path)
				if prev, ok := c.state[key]; ok && prev.sig == sig {
					continue
				}
				c.state[key] = lgAnswer{sig: sig, vp: vp}
				changed = append(changed, feedtypes.Event{
					Source:       periscope.SourceName,
					Collector:    lgID,
					VantagePoint: vp,
					Kind:         feedtypes.Announce,
					Prefix:       a.Prefix,
					Path:         a.Path,
					SeenAt:       now,
					EmittedAt:    now,
				})
			}
			// Answers that disappeared since the last round are withdrawals.
			keyPfx := lgID + "|" + watched.String() + "|"
			for key, prev := range c.state {
				if len(key) <= len(keyPfx) || key[:len(keyPfx)] != keyPfx || current[key] {
					continue
				}
				delete(c.state, key)
				p, err := prefix.Parse(key[len(keyPfx):])
				if err != nil {
					continue
				}
				changed = append(changed, feedtypes.Event{
					Source:       periscope.SourceName,
					Collector:    lgID,
					VantagePoint: prev.vp,
					Kind:         feedtypes.Withdraw,
					Prefix:       p,
					SeenAt:       now,
					EmittedAt:    now,
				})
			}
		}
	}
	return changed, nil
}

func (c *periscopeConn) Close() error {
	c.cancel()
	return nil
}

// pathSig reduces an AS path to a comparable signature (the same encoding
// the in-process periscope service uses for change detection).
func pathSig(path []bgp.ASN) string {
	sig := make([]byte, 0, len(path)*5)
	for _, a := range path {
		sig = append(sig, byte(a>>24), byte(a>>16), byte(a>>8), byte(a), '.')
	}
	return string(sig)
}
