package market

import (
	"errors"
	"fmt"
)

// Federation models the paper's "coalition of multiple IaaS providers"
// (SpotCloud-style): several providers offer the same VM class with
// independent spot-price processes, and in each slot the ASP rents from the
// cheapest one. The effective price series is the per-slot minimum.
type Federation struct {
	Class     VMClass
	Providers []*SpotTrace
}

// NewFederation generates a federation of n providers for a class, each
// with an independent trace of the given length.
func NewFederation(class VMClass, n, days int, seed int64) (*Federation, error) {
	if n <= 0 {
		return nil, errors.New("market: federation needs at least one provider")
	}
	f := &Federation{Class: class}
	for i := 0; i < n; i++ {
		g, err := NewGenerator(class, seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		f.Providers = append(f.Providers, g.Trace(days))
	}
	return f, nil
}

// HourlyMin resamples every provider and returns the per-slot minimum price
// along with the index of the winning provider per slot.
func (f *Federation) HourlyMin(start float64, n int) (prices []float64, provider []int, err error) {
	if len(f.Providers) == 0 {
		return nil, nil, errors.New("market: empty federation")
	}
	prices = make([]float64, n)
	provider = make([]int, n)
	for i, tr := range f.Providers {
		h, err := tr.Hourly(start, n)
		if err != nil {
			return nil, nil, fmt.Errorf("market: provider %d: %w", i, err)
		}
		for t := 0; t < n; t++ {
			if i == 0 || h[t] < prices[t] {
				prices[t] = h[t]
				provider[t] = i
			}
		}
	}
	return prices, provider, nil
}

// SwitchCount returns how many times the winning provider changes across
// the horizon — a proxy for the migration churn a federated ASP would face.
func SwitchCount(provider []int) int {
	c := 0
	for t := 1; t < len(provider); t++ {
		if provider[t] != provider[t-1] {
			c++
		}
	}
	return c
}
