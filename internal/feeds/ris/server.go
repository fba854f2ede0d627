package ris

import (
	"encoding/json"
	"net/http"
	"sync"

	"artemis/internal/feeds/feedtypes"
	"artemis/internal/wsock"
)

// Server exposes a Service as a RIS Live-style WebSocket endpoint.
//
// Protocol: the client upgrades at the handler's path, sends one
// ris_subscribe envelope, then receives a stream of ris_message envelopes.
// A slow client whose buffer overflows is disconnected rather than allowed
// to stall the simulation's event loop.
type Server struct {
	svc *Service

	mu    sync.Mutex
	conns map[*clientConn]bool
}

type clientConn struct {
	ws     *wsock.Conn
	out    chan []byte
	cancel func()
}

// clientBuffer is the per-connection event backlog before the server gives
// up on a slow consumer.
const clientBuffer = 4096

// NewServer wraps svc for network serving.
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, conns: make(map[*clientConn]bool)}
}

// ServeHTTP implements the WebSocket endpoint.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ws, err := wsock.Upgrade(w, r)
	if err != nil {
		return // Upgrade already replied
	}
	_, raw, err := ws.ReadMessage()
	if err != nil {
		ws.Close()
		return
	}
	var sub subscribeMsg
	if err := json.Unmarshal(raw, &sub); err != nil {
		ws.Close()
		return
	}
	filter, err := wireToFilter(sub)
	if err != nil {
		ws.Close()
		return
	}
	cc := &clientConn{ws: ws, out: make(chan []byte, clientBuffer)}
	cc.cancel = s.svc.Subscribe(filter, func(ev feedtypes.Event) {
		select {
		case cc.out <- AppendMessage(nil, ev):
		default:
			// Client too slow; drop it. Closing the socket makes the
			// writer loop exit and unsubscribe.
			ws.Close()
		}
	})
	s.mu.Lock()
	s.conns[cc] = true
	s.mu.Unlock()

	go s.writeLoop(cc)
	// Reader loop: we expect no further client messages, but reading keeps
	// ping/pong alive and detects close.
	go func() {
		for {
			if _, _, err := ws.ReadMessage(); err != nil {
				s.drop(cc)
				return
			}
		}
	}()
}

func (s *Server) writeLoop(cc *clientConn) {
	for b := range cc.out {
		if err := cc.ws.WriteMessage(wsock.OpText, b); err != nil {
			s.drop(cc)
			return
		}
	}
}

func (s *Server) drop(cc *clientConn) {
	s.mu.Lock()
	if !s.conns[cc] {
		s.mu.Unlock()
		return
	}
	delete(s.conns, cc)
	s.mu.Unlock()
	cc.cancel()
	cc.ws.Close()
	close(cc.out)
}

// Close disconnects all clients.
func (s *Server) Close() {
	s.mu.Lock()
	conns := make([]*clientConn, 0, len(s.conns))
	for cc := range s.conns {
		conns = append(conns, cc)
	}
	s.mu.Unlock()
	for _, cc := range conns {
		s.drop(cc)
	}
}
