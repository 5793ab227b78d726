package experiments

import (
	"fmt"
	"io"

	"rentplan/internal/fleet"
	"rentplan/internal/market"
)

// EquilibriumPoint is one epoch of a fleet equilibrium run: where the
// demand/price feedback loop moved the clearing-price level and how the
// fleet's aggregate spot demand responded.
type EquilibriumPoint struct {
	Epoch int
	// BaseSpot is the generator level the epoch priced from; MeanPrice the
	// realised mean hourly spot price.
	BaseSpot, MeanPrice float64
	// SpotSlots is the fleet's aggregate spot demand in instance-slots,
	// and Utilisation its ratio to the provider capacity.
	SpotSlots   int64
	Utilisation float64
	// WakeFraction is wakes / ASP-slots this epoch: how often the fleet
	// re-plans, at regime crossings and plan expiries.
	WakeFraction float64
}

// FleetEquilibriumStudy runs the fleet's lite engine (each ASP's epoch
// settled in O(1) from per-price-level tables) against a capacity-
// constrained spot market and reports the per-epoch approach to the market
// equilibrium: over-capacity demand pushes the clearing level up, which
// prices marginal bidders out, which releases demand — the aggregate
// feedback the provider-side allocation literature studies and a
// single-agent run cannot exhibit. Deterministic for fixed arguments.
func FleetEquilibriumStudy(class market.VMClass, asps, epochs int, seed int64) ([]EquilibriumPoint, error) {
	pop, err := fleet.SamplePopulation(asps, class, seed)
	if err != nil {
		return nil, err
	}
	const epochHours = 168
	capacity := float64(asps) * epochHours / 4 // starved: ~2× oversubscribed at open
	cfg := &fleet.Config{
		Class:      class,
		Population: pop,
		Shards:     4,
		Epochs:     epochs,
		EpochHours: epochHours,
		Feedback:   0.3,
		Capacity:   capacity,
		Seed:       seed,
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, err
	}
	aspSlots := float64(asps) * epochHours
	points := make([]EquilibriumPoint, 0, len(res.Epochs))
	for _, rep := range res.Epochs {
		points = append(points, EquilibriumPoint{
			Epoch:        rep.Epoch,
			BaseSpot:     rep.BaseSpot,
			MeanPrice:    rep.MeanPrice,
			SpotSlots:    rep.SpotSlots,
			Utilisation:  float64(rep.SpotSlots) / capacity,
			WakeFraction: float64(rep.Wakes) / aspSlots,
		})
	}
	return points, nil
}

// WriteEquilibriumTable renders the study as the README's equilibrium
// table: one row per epoch, clearing level first.
func WriteEquilibriumTable(w io.Writer, points []EquilibriumPoint) {
	fmt.Fprintf(w, "%-6s %10s %10s %12s %6s %7s\n",
		"epoch", "base $/h", "mean $/h", "spot slots", "util", "wake%")
	for _, p := range points {
		fmt.Fprintf(w, "%-6d %10.4f %10.4f %12d %6.2f %6.2f%%\n",
			p.Epoch, p.BaseSpot, p.MeanPrice, p.SpotSlots, p.Utilisation, 100*p.WakeFraction)
	}
}
