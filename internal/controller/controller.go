// Package controller reproduces the SDN controller ARTEMIS runs over
// (§2: "a network controller that supports BGP, like ONOS or
// OpenDayLight"). The controller owns the AS's BGP route origination: the
// mitigation service asks it to announce or withdraw prefixes, it applies
// a configuration latency (the ~15 s the paper measured between detection
// and the de-aggregated announcements leaving the routers), and pushes the
// routes through a southbound — the simulated AS node in experiments, or a
// REST controller client in the live daemon.
package controller

import (
	"fmt"
	"sync"
	"time"

	"artemis/internal/bgp"
	"artemis/internal/prefix"
	"artemis/internal/simnet"
	"artemis/internal/stats"
)

// RouteInjector is the controller's southbound: something that can
// originate and withdraw prefixes on behalf of the AS.
type RouteInjector interface {
	AnnounceRoute(p prefix.Prefix) error
	WithdrawRoute(p prefix.Prefix) error
}

// DefaultConfigDelay is the configuration/propagation latency inside the
// controller and routers — §3 reports ~15 s from mitigation trigger to the
// de-aggregated prefixes being announced.
const DefaultConfigDelay = 15 * time.Second

// ActionKind distinguishes controller operations.
type ActionKind string

// Controller action kinds.
const (
	ActionAnnounce ActionKind = "announce"
	ActionWithdraw ActionKind = "withdraw"
)

// Action is one recorded controller operation, successful or failed.
type Action struct {
	Kind ActionKind
	// Prefix affected.
	Prefix prefix.Prefix
	// RequestedAt / AppliedAt bracket the configuration latency. For a
	// failed action AppliedAt is when the southbound rejected it.
	RequestedAt, AppliedAt time.Duration
	// Err is the southbound failure; nil when the route was applied. A
	// failed action is recorded — not silently discarded — so operators
	// and the mitigation service can see which announcements never left
	// the routers.
	Err error
}

// Failed reports whether the southbound rejected the operation.
func (a Action) Failed() bool { return a.Err != nil }

// Controller schedules route changes onto a southbound injector after a
// configuration delay.
type Controller struct {
	inj         RouteInjector
	configDelay time.Duration
	// now and after abstract time so the controller runs both on the
	// simulation engine and on the wall clock.
	now   func() time.Duration
	after func(time.Duration, func())

	mu       sync.Mutex
	actions  []Action
	onResult []func(Action)
	failures stats.Counter
}

// Option configures a Controller.
type Option func(*Controller)

// WithConfigDelay overrides the configuration latency.
func WithConfigDelay(d time.Duration) Option {
	return func(c *Controller) { c.configDelay = d }
}

// New builds a controller over an injector using the given clock: now
// reads it and after schedules on it. For simulation use NewSim.
func New(inj RouteInjector, now func() time.Duration, after func(time.Duration, func()), opts ...Option) *Controller {
	c := &Controller{inj: inj, configDelay: DefaultConfigDelay, now: now, after: after}
	for _, o := range opts {
		o(c)
	}
	return c
}

// NewSim builds a controller driven by the simulation engine's clock.
func NewSim(nw *simnet.Network, inj RouteInjector, opts ...Option) *Controller {
	return New(inj, nw.Engine.Now, nw.Engine.After, opts...)
}

// Announce asks the controller to originate p. The route leaves the
// routers after the configuration delay.
func (c *Controller) Announce(p prefix.Prefix) error {
	return c.apply(ActionAnnounce, p)
}

// Withdraw asks the controller to stop originating p.
func (c *Controller) Withdraw(p prefix.Prefix) error {
	return c.apply(ActionWithdraw, p)
}

func (c *Controller) apply(kind ActionKind, p prefix.Prefix) error {
	req := c.now()
	c.after(c.configDelay, func() {
		var err error
		if kind == ActionAnnounce {
			err = c.inj.AnnounceRoute(p)
		} else {
			err = c.inj.WithdrawRoute(p)
		}
		if err != nil {
			c.failures.Inc()
		}
		act := Action{Kind: kind, Prefix: p, RequestedAt: req, AppliedAt: c.now(), Err: err}
		c.mu.Lock()
		c.actions = append(c.actions, act)
		listeners := make([]func(Action), len(c.onResult))
		copy(listeners, c.onResult)
		c.mu.Unlock()
		for _, fn := range listeners {
			fn(act)
		}
	})
	return nil
}

// OnResult registers a callback invoked after each action is attempted
// (successful or failed). The southbound is asynchronous — Announce
// returns before the injector runs — so this is the only way a caller
// learns that an announcement it requested never left the routers; the
// mitigation service uses it to mark incidents failed and retryable.
func (c *Controller) OnResult(fn func(Action)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onResult = append(c.onResult, fn)
}

// Actions returns the recorded operations, oldest first, failed ones
// included (check Action.Failed).
func (c *Controller) Actions() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Action(nil), c.actions...)
}

// Applied returns only the operations the southbound accepted.
func (c *Controller) Applied() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Action, 0, len(c.actions))
	for _, a := range c.actions {
		if a.Err == nil {
			out = append(out, a)
		}
	}
	return out
}

// Failures reports how many operations the southbound rejected.
func (c *Controller) Failures() int64 { return c.failures.Load() }

// SimInjector originates routes at one or more ASes of the simulated
// network (the owner's border routers / PEERING sites).
type SimInjector struct {
	nw   *simnet.Network
	ases []bgp.ASN
}

// NewSimInjector validates the target ASes and returns the injector.
func NewSimInjector(nw *simnet.Network, ases ...bgp.ASN) (*SimInjector, error) {
	if len(ases) == 0 {
		return nil, fmt.Errorf("controller: no target ASes")
	}
	for _, asn := range ases {
		if nw.Node(asn) == nil {
			return nil, fmt.Errorf("controller: unknown AS %v", asn)
		}
	}
	return &SimInjector{nw: nw, ases: ases}, nil
}

// AnnounceRoute implements RouteInjector.
func (s *SimInjector) AnnounceRoute(p prefix.Prefix) error {
	for _, asn := range s.ases {
		if err := s.nw.Announce(asn, p); err != nil {
			return err
		}
	}
	return nil
}

// WithdrawRoute implements RouteInjector.
func (s *SimInjector) WithdrawRoute(p prefix.Prefix) error {
	for _, asn := range s.ases {
		if err := s.nw.Withdraw(asn, p); err != nil {
			return err
		}
	}
	return nil
}
