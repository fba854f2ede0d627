//go:build !race

// Excluded under the race detector, whose instrumentation allocates on
// its own schedule.
package ingest_test

import (
	"os"
	"path/filepath"
	"testing"

	"artemis/internal/feeds/eventlog"
	"artemis/internal/feeds/feedtypes"
	"artemis/internal/ingest"
)

// TestDecodeRecvSteadyStateAllocationFree: once a connection's batch and
// decoder scratch have grown, a Recv — read, decode into the reused
// batch, paths in its arena, names interned — allocates (amortized) at
// most once, however many events it returns. RIS reads a pre-filled
// loopback socket; the event log a file.
func TestDecodeRecvSteadyStateAllocationFree(t *testing.T) {
	const events, runs = 20000, 50
	evs := risEvents(events)

	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "cap-000001.evlog"))
	if err != nil {
		t.Fatal(err)
	}
	if err := eventlog.NewWriter(f).WriteBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		dialer ingest.Dialer
	}{
		{"ris", ingest.RISDialer(risLoopback(t, risFrames(evs)), feedtypes.Filter{})},
		{"evlog", ingest.EventLogFileDialer(filepath.Join(dir, "cap-*.evlog"), ingest.EventLogReplay{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := tc.dialer.Dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			got, recvs := 0, 0
			recv := func() {
				batch, err := conn.Recv()
				if err != nil {
					t.Fatalf("Recv after %d events: %v", got, err)
				}
				got += len(batch)
				recvs++
			}
			for got < events/4 { // warm up
				recv()
			}
			got, recvs = 0, 0
			avg := testing.AllocsPerRun(runs, recv)
			t.Logf("%.2f allocs per Recv, %d events per Recv", avg, got/recvs)
			if avg > 1 {
				t.Errorf("steady-state Recv averaged %.2f allocs (%d events per Recv), want <= 1", avg, got/recvs)
			}
		})
	}
}
