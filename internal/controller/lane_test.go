package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"artemis/internal/prefix"
)

// hangingController accepts connections and never answers.
func hangingController(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})
	return "http://" + ln.Addr().String()
}

func nthPrefix(i int) prefix.Prefix {
	return prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff))
}

func zeroClock() time.Duration { return 0 }

// TestLaneHangingController: against a controller that accepts and never
// answers, every call fails on the client's timeout, the results come
// back in request order, and the lane holds no goroutine per request.
func TestLaneHangingController(t *testing.T) {
	const n = 1000
	cli := NewRESTClient(hangingController(t))
	cli.hc.Timeout = 2 * time.Millisecond
	base := runtime.NumGoroutine()
	lane := NewLane(cli, 0, zeroClock)
	defer lane.Close()

	results := make(chan Action, n)
	for i := 0; i < n; i++ {
		lane.Request(ActionAnnounce, nthPrefix(i), func(a Action) { results <- a })
	}
	peak := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		var a Action
		select {
		case a = <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d results after 10 s", i, n)
		}
		if a.Prefix != nthPrefix(i) {
			t.Fatalf("result %d is for %v, want %v: out of request order", i, a.Prefix, nthPrefix(i))
		}
		var ne net.Error
		if !errors.As(a.Err, &ne) || !ne.Timeout() {
			t.Fatalf("result %d: err = %v, want a timeout", i, a.Err)
		}
		if i == n/2 {
			peak = max(peak, runtime.NumGoroutine())
		}
	}
	if peak-base > 10 {
		t.Fatalf("goroutines grew from %d to %d with %d requests queued", base, peak, n)
	}
	if got := lane.Failures(); got != n {
		t.Fatalf("failures = %d, want %d", got, n)
	}
}

// recordingInjector records each call and, while gate is non-nil, blocks
// every call until gate is closed.
type recordingInjector struct {
	gate chan struct{}
	mu   sync.Mutex
	sent []prefix.Prefix
	at   []time.Time
}

func (r *recordingInjector) AnnounceRoute(p prefix.Prefix) error {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent, r.at = append(r.sent, p), append(r.at, time.Now())
	return nil
}

func (r *recordingInjector) WithdrawRoute(p prefix.Prefix) error { return r.AnnounceRoute(p) }

// TestLaneNotBeforeStamp: each request is sent no earlier than its
// request time plus the delay, and in request order.
func TestLaneNotBeforeStamp(t *testing.T) {
	const delay = 30 * time.Millisecond
	inj := &recordingInjector{}
	lane := NewLane(inj, delay, zeroClock)
	var asked []time.Time
	for i := 0; i < 3; i++ {
		asked = append(asked, time.Now())
		lane.Request(ActionAnnounce, nthPrefix(i), nil)
		time.Sleep(delay / 3)
	}
	time.Sleep(2 * delay)
	lane.Close()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(inj.sent) != 3 {
		t.Fatalf("sent %v, want 3 requests", inj.sent)
	}
	for i, p := range inj.sent {
		if p != nthPrefix(i) {
			t.Fatalf("sent %v: out of request order", inj.sent)
		}
		if early := asked[i].Add(delay).Sub(inj.at[i]); early > 0 {
			t.Fatalf("request %d sent %v before its not-before stamp", i, early)
		}
	}
}

// TestLaneCloseSendsDueFailsRest: Close sends what is already due, fails
// what is not as closed, and counts the latter; a request after Close
// never reaches the southbound.
func TestLaneCloseSendsDueFailsRest(t *testing.T) {
	const delay = 100 * time.Millisecond
	inj := &recordingInjector{gate: make(chan struct{})}
	lane := NewLane(inj, delay, zeroClock)
	var mu sync.Mutex
	var errs []error
	done := func(a Action) {
		mu.Lock()
		errs = append(errs, a.Err)
		mu.Unlock()
	}
	lane.Request(ActionAnnounce, nthPrefix(0), done) // holds the southbound
	lane.Request(ActionAnnounce, nthPrefix(1), done) // due while it waits
	time.Sleep(2 * delay)
	lane.Request(ActionAnnounce, nthPrefix(2), done) // not due at Close

	closed := make(chan struct{})
	go func() { lane.Close(); close(closed) }()
	time.Sleep(delay / 4) // let Close mark the lane closed
	close(inj.gate)
	<-closed
	lane.Request(ActionAnnounce, nthPrefix(3), done)

	inj.mu.Lock()
	sent := append([]prefix.Prefix(nil), inj.sent...)
	inj.mu.Unlock()
	if len(sent) != 2 || sent[0] != nthPrefix(0) || sent[1] != nthPrefix(1) {
		t.Fatalf("sent %v, want the two due requests", sent)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 3 || errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrClosed) {
		t.Fatalf("results %v, want ok, ok, closed", errs)
	}
	if lane.Failures() != 2 || lane.Cancelled() != 2 {
		t.Fatalf("failures %d, cancelled %d, want 2 and 2", lane.Failures(), lane.Cancelled())
	}
}

// TestLaneCloseHangingControllerBounded: Close on a lane whose controller
// has stopped answering, or answers each call just inside the client's
// timeout, returns within about one timeout; the requests behind the
// call that runs out fail as closed without a call each.
func TestLaneCloseHangingControllerBounded(t *testing.T) {
	const timeout = 50 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(timeout * 4 / 5)
		w.WriteHeader(http.StatusAccepted)
	}))
	defer slow.Close()
	for name, url := range map[string]string{"hanging": hangingController(t), "slow": slow.URL} {
		t.Run(name, func(t *testing.T) {
			cli := NewRESTClient(url)
			cli.hc.Timeout = timeout
			lane := NewLane(cli, 0, zeroClock)
			for i := 0; i < 20; i++ {
				lane.Request(ActionAnnounce, nthPrefix(i), nil)
			}
			start := time.Now()
			lane.Close()
			if took := time.Since(start); took > 2*timeout {
				t.Fatalf("Close took %v, want at most about one %v timeout", took, timeout)
			}
			if lane.Failures() < 18 || lane.Cancelled() < 17 {
				t.Fatalf("failures %d, cancelled %d, want at least 18 and 17", lane.Failures(), lane.Cancelled())
			}
		})
	}
}

// TestRESTClientBodyAndStatus: the client's hand-built body is what
// json.Marshal makes of the wire action, and an answer other than 202 is
// a failed call.
func TestRESTClientBodyAndStatus(t *testing.T) {
	var bodies []string
	status := http.StatusAccepted
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(b))
		w.WriteHeader(status)
	}))
	defer hs.Close()
	cli := NewRESTClient(hs.URL)
	v4, v6 := prefix.MustParse("10.0.0.0/24"), prefix.MustParse("2001:db8::/48")
	if err := cli.AnnounceRoute(v4); err != nil {
		t.Fatal(err)
	}
	if err := cli.WithdrawRoute(v6); err != nil {
		t.Fatal(err)
	}
	for i, want := range []wireAction{
		{Prefix: v4.String(), Action: string(ActionAnnounce)},
		{Prefix: v6.String(), Action: string(ActionWithdraw)},
	} {
		b, _ := json.Marshal(want)
		if bodies[i] != string(b) {
			t.Fatalf("body %d = %s, want %s", i, bodies[i], b)
		}
	}
	status = http.StatusServiceUnavailable
	if err := cli.AnnounceRoute(v4); err == nil {
		t.Fatal("HTTP 503 was not a failed call")
	}
}
