package main

import (
	"testing"
	"time"

	"rentplan/internal/serve"
)

// TestValidateFlags pins the daemon's usage-error surface (exit 2 in main).
func TestValidateFlags(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name           string
		workers, queue int
		budget, maxBud time.Duration
		trees          int
		wantErr        bool
	}{
		{"defaults", 0, 0, 250 * ms, 5000 * ms, 256, false},
		{"explicit sizes", 4, 64, 0, 5000 * ms, 16, false},
		{"negative workers", -1, 0, 250 * ms, 5000 * ms, 256, true},
		{"negative queue", 0, -2, 250 * ms, 5000 * ms, 256, true},
		{"queue below workers", 8, 4, 250 * ms, 5000 * ms, 256, true},
		{"negative budget", 0, 0, -ms, 5000 * ms, 256, true},
		{"zero max budget", 0, 0, 250 * ms, 0, 256, true},
		{"budget above ceiling", 0, 0, 10000 * ms, 5000 * ms, 256, true},
		{"zero cache", 0, 0, 250 * ms, 5000 * ms, 0, true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.workers, tc.queue, tc.budget, tc.maxBud, tc.trees)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err=%v, wantErr=%v", tc.name, err, tc.wantErr)
		}
	}
}

// The daemon's http.Server must bound reading, writing and idling, and its
// write timeout must outlast every admitted request, or the answer to a
// queued solve would be cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	cfg := serve.Config{Workers: 2, Queue: 8, DefaultBudget: 250 * time.Millisecond, MaxBudget: 5 * time.Second}
	hs := newHTTPServer(":0", serve.New(cfg))
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded phase: header %v read %v idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	// Eight admitted solves one after another at the 5 s ceiling, after
	// the body read.
	if least := hs.ReadTimeout + 8*cfg.MaxBudget; hs.WriteTimeout < least {
		t.Fatalf("write timeout %v below %v", hs.WriteTimeout, least)
	}
	cfg.DefaultBudget = 0 // unbudgeted solves: no bound to set
	if hs := newHTTPServer(":0", serve.New(cfg)); hs.WriteTimeout != 0 {
		t.Fatalf("write timeout %v with unbudgeted solves", hs.WriteTimeout)
	}
}
