package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the id of the span that caused it (-1 for a
// root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; write dumps them when the run ends. It
// is used only by the traced replay, which is serial, so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Since(r.t0)
	return r.spans[id].dur()
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// medianUS and medianMS summarise the spans of one name.
func (r *recorder) medianUS(name string) float64 { return medianOf(r.durations(name), us) }
func (r *recorder) medianMS(name string) float64 { return medianOf(r.durations(name), ms) }

func medianOf(ds []time.Duration, unit func(time.Duration) float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return median(xs)
}

// write dumps the spans as JSON lines into dir/name.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
