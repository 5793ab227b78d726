package market

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rentplan/internal/timeseries"
)

// ReadTraceCSV parses a "hour,price" CSV, the format cmd/spotsim emits,
// into a spot trace for the given class. Events are sorted by time; Days is
// derived from the last event, and an hour whose day count or hour count
// would not fit an int is rejected.
func ReadTraceCSV(r io.Reader, class VMClass) (*SpotTrace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	tr := &SpotTrace{Class: class}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("market: trace csv: %w", err)
		}
		line++
		if line == 1 && strings.EqualFold(strings.TrimSpace(rec[0]), "hour") {
			continue // header
		}
		hour, err := strconv.ParseFloat(strings.TrimSpace(rec[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("market: trace csv line %d: bad hour %q", line, rec[0])
		}
		price, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("market: trace csv line %d: bad price %q", line, rec[1])
		}
		if math.IsNaN(hour) || math.IsInf(hour, 0) || hour < 0 {
			return nil, fmt.Errorf("market: trace csv line %d: hour %v out of range", line, hour)
		}
		// Compared as a float: converting an out-of-range float to int is
		// implementation-defined.
		if traceDays(hour)*24 >= math.MaxInt {
			return nil, fmt.Errorf("market: trace csv line %d: hour %v past the last representable day", line, hour)
		}
		if !(price > 0) || math.IsInf(price, 0) {
			return nil, fmt.Errorf("market: trace csv line %d: price %v must be positive", line, price)
		}
		tr.Events.Events = append(tr.Events.Events, timeseries.Event{Hour: hour, Value: price})
	}
	if len(tr.Events.Events) == 0 {
		return nil, fmt.Errorf("market: trace csv contains no events")
	}
	tr.Events.Sort()
	last := tr.Events.Events[len(tr.Events.Events)-1].Hour
	tr.Days = int(traceDays(last))
	if tr.Days == 0 {
		tr.Days = 1
	}
	return tr, nil
}

// traceDays is the number of whole days a trace ending at hour spans.
func traceDays(hour float64) float64 { return math.Ceil((hour + 1e-9) / 24) }
