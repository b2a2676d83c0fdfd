package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestUnregisterPrefixConcurrentSnapshot pins, under -race, the
// real-world interleaving of a live server: a result store's Close
// retiring its instance-named metric family (UnregisterPrefix) while a
// concurrent /metrics scrape walks the registry (TakeSnapshot,
// WritePrometheus) and the expvar publication renders it. Every path must serialize on
// the registry mutex; recording into a just-unregistered metric must
// stay safe (the instance outlives its registration).
func TestUnregisterPrefixConcurrentSnapshot(t *testing.T) {
	withObs(t, func() {
		publishMetrics()
		ev := expvar.Get("athena.metrics")

		const churners = 4
		const rounds = 200
		stop := make(chan struct{})
		var scrapers sync.WaitGroup
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = TakeSnapshot()
				_ = WritePrometheus(io.Discard)
				_ = ev.String() // the expvar publish path renders a snapshot too
				rr := httptest.NewRecorder()
				DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
				if _, err := ParsePrometheus(rr.Body); err != nil {
					t.Errorf("mid-churn exposition does not lint: %v", err)
					return
				}
			}
		}()

		var churn sync.WaitGroup
		for g := 0; g < churners; g++ {
			churn.Add(1)
			go func(g int) {
				defer churn.Done()
				for i := 0; i < rounds; i++ {
					prefix := fmt.Sprintf("store.race%d-%d.", g, i)
					c := NewCounter(prefix + "ingest")
					h := NewHistogram(prefix + "ingest_ns")
					gauge := NewGauge(prefix + "pending")
					c.Inc()
					h.Observe(int64(i))
					gauge.Set(int64(i))
					if n := UnregisterPrefix(prefix); n != 3 {
						t.Errorf("retired %d metrics under %s, want 3", n, prefix)
						return
					}
					// Recording into the retired instances must stay safe.
					c.Inc()
					h.Observe(1)
				}
			}(g)
		}
		churn.Wait()
		close(stop)
		scrapers.Wait()

		// All churned families are gone from the final snapshot.
		s := TakeSnapshot()
		for name := range s.Counters {
			if strings.HasPrefix(name, "store.race") {
				t.Fatalf("retired metric %s survived", name)
			}
		}
		for name := range s.Histograms {
			if strings.HasPrefix(name, "store.race") {
				t.Fatalf("retired metric %s survived", name)
			}
		}
	})
}
