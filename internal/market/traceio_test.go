package market

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTraceCSVRoundTrip(t *testing.T) {
	g, err := NewGenerator(C1Medium, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Trace(20)
	// The rows cmd/spotsim -csv events prints.
	var buf bytes.Buffer
	buf.WriteString("hour,price\n")
	for _, e := range tr.Events.Events {
		fmt.Fprintf(&buf, "%.4f,%.4f\n", e.Hour, e.Value)
	}
	back, err := ReadTraceCSV(&buf, C1Medium)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events.Events) != len(tr.Events.Events) {
		t.Fatalf("event count %d != %d", len(back.Events.Events), len(tr.Events.Events))
	}
	for i, e := range tr.Events.Events {
		got := back.Events.Events[i]
		if math.Abs(got.Hour-e.Hour) > 5e-5 || math.Abs(got.Value-e.Value) > 5e-5 {
			t.Fatalf("event %d: %v != %v beyond the 4-decimal rounding", i, got, e)
		}
	}
	if back.Days != tr.Days && back.Days != tr.Days-1 {
		// Days is derived from the last event, so it may be tighter than
		// the generator's nominal horizon but never larger.
		if back.Days > tr.Days {
			t.Fatalf("days %d > %d", back.Days, tr.Days)
		}
	}
	if back.Class != C1Medium {
		t.Fatalf("class %s", back.Class)
	}
}

func TestReadTraceCSVUnsortedInput(t *testing.T) {
	in := "hour,price\n5.5,0.062\n1.25,0.060\n3.0,0.061\n"
	tr, err := ReadTraceCSV(strings.NewReader(in), M1Large)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Events.Sorted() {
		t.Fatal("events not sorted after read")
	}
	if tr.Events.Events[0].Value != 0.060 {
		t.Fatalf("first event %v", tr.Events.Events[0])
	}
	if tr.Days != 1 {
		t.Fatalf("days %d", tr.Days)
	}
}

func TestReadTraceCSVNoHeader(t *testing.T) {
	in := "0.5,0.06\n2,0.061\n"
	tr, err := ReadTraceCSV(strings.NewReader(in), C1Medium)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events.Events) != 2 {
		t.Fatalf("events %d", len(tr.Events.Events))
	}
}

func TestReadTraceCSVErrors(t *testing.T) {
	cases := []string{
		"",                                       // empty
		"hour,price\n",                           // header only
		"hour,price\nx,0.06\n",                   // bad hour
		"hour,price\n1,zero\n",                   // bad price
		"hour,price\n-1,0.06\n",                  // negative hour
		"hour,price\n1,0\n",                      // nonpositive price
		"hour,price\n1,0.06,9\n",                 // wrong field count
		"hour,price\n1e300,0.05\n",               // day count overflows int
		"hour,price\n9223372036854775808,0.05\n", // 2^63: Days·24 overflows int
	}
	for i, in := range cases {
		if _, err := ReadTraceCSV(strings.NewReader(in), C1Medium); err == nil {
			t.Errorf("case %d: want error for %q", i, in)
		}
	}
	_, err := ReadTraceCSV(strings.NewReader("hour,price\n1,0.05\n1e300,0.05\n"), C1Medium)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("overflowing hour: error %v does not name line 3", err)
	}
}
