package spec

import (
	"bytes"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"rentplan/internal/core"
	"rentplan/internal/market"
	"rentplan/internal/mip"
)

const drrpJSON = `{
  "model": "drrp",
  "class": "m1.large",
  "epsilon": 0.5,
  "demand": [0.4, 0.3, 0.5, 0.2, 0.6, 0.4]
}`

const srrpJSON = `{
  "model": "srrp",
  "class": "c1.medium",
  "demand": [0.4, 0.4, 0.4],
  "srrp": {
    "stages": 2,
    "bid": 0.060,
    "rootPrice": 0.059,
    "baseValues": [0.056, 0.058, 0.060, 0.062, 0.064],
    "baseProbs": [0.1, 0.2, 0.4, 0.2, 0.1],
    "maxBranch": 3
  }
}`

func TestParseAndSolveDRRP(t *testing.T) {
	ins, err := Parse(strings.NewReader(drrpJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ins.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Must equal the core solver on the same data.
	par := core.DefaultParams(market.M1Large)
	par.Epsilon = 0.5
	lambda, _ := par.OnDemandRate()
	prices := []float64{lambda, lambda, lambda, lambda, lambda, lambda}
	want, err := core.SolveDRRP(par, prices, ins.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-want.Cost) > 1e-9 {
		t.Fatalf("spec solve %v != core %v", res.Cost, want.Cost)
	}
	if len(res.Alpha) != 6 || len(res.Chi) != 6 {
		t.Fatalf("plan slices missing: %+v", res)
	}
	if math.Abs(res.Compute+res.Holding+res.Transfer-res.Cost) > 1e-9 {
		t.Fatal("breakdown mismatch")
	}
}

func TestParseAndSolveSRRP(t *testing.T) {
	ins, err := Parse(strings.NewReader(srrpJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ins.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RootRent == nil || res.RootAlpha == nil {
		t.Fatalf("missing root decision: %+v", res)
	}
	if res.TreeVertices != 1+3+9 {
		t.Fatalf("tree vertices %d", res.TreeVertices)
	}
	if res.Cost <= 0 {
		t.Fatalf("cost %v", res.Cost)
	}
}

func TestRoundTrip(t *testing.T) {
	ins, err := Parse(strings.NewReader(srrpJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ins.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ins.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := back.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Cost-r2.Cost) > 1e-12 {
		t.Fatalf("round trip changed the instance: %v vs %v", r1.Cost, r2.Cost)
	}
}

func TestCapacitatedSpec(t *testing.T) {
	in := `{
	  "model": "drrp",
	  "class": "c1.medium",
	  "demand": [0.4, 0.5, 0.3, 0.6],
	  "capacity": [0.7, 0.7, 0.7, 0.7]
	}`
	ins, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ins.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for t0, a := range res.Alpha {
		if a > 0.7+1e-6 {
			t.Fatalf("capacity violated at %d: %v", t0, a)
		}
	}
}

// TestSolvePassesSolverOptions checks Solve hands its solver options to the
// branch-and-bound search: stage 1's capacity sits below its demand, which
// binds at the uncapacitated optimum, so the solve runs the MILP, and the
// Progress callback must receive at least one Stats snapshot.
func TestSolvePassesSolverOptions(t *testing.T) {
	in := strings.Replace(srrpJSON, `"demand": [0.4, 0.4, 0.4],`, `"demand": [0.4, 0.4, 0.4],
  "capacity": [0.6, 0.3, 1],`, 1)
	ins, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var snapshots atomic.Int64
	res, err := ins.Solve(mip.Options{Workers: 1, Progress: func(mip.Stats) { snapshots.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if snapshots.Load() == 0 {
		t.Fatal("the MILP solve sent no Stats snapshot to the Progress callback")
	}
	if *res.RootAlpha > 0.6 {
		t.Fatalf("root generates %v over its capacity 0.6", *res.RootAlpha)
	}
}

func TestParseRejectsBadInstances(t *testing.T) {
	cases := []string{
		`{`, // malformed JSON
		`{"model":"xxx","class":"c1.medium","demand":[1]}`,
		`{"model":"drrp","class":"c1.medium","demand":[]}`,
		`{"model":"drrp","class":"c1.medium","demand":[-1]}`,
		`{"model":"drrp","class":"nope","demand":[1]}`,
		`{"model":"drrp","class":"c1.medium","demand":[1],"prices":[1,2]}`,
		`{"model":"drrp","class":"c1.medium","demand":[1,1],"capacity":[1]}`,
		`{"model":"drrp","class":"c1.medium","demand":[1],"epsilon":-1}`,
		`{"model":"drrp","class":"c1.medium","demand":[1],"phi":-1}`,
		`{"model":"drrp","class":"c1.medium","demand":[1],"srrp":{"stages":1,"bid":1,"rootPrice":1,"baseValues":[1]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1]}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1],"srrp":{"stages":0,"bid":1,"rootPrice":1,"baseValues":[1]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1,1],"srrp":{"stages":1,"bid":1,"rootPrice":1,"baseValues":[1]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1],"srrp":{"stages":1,"bid":1,"rootPrice":0,"baseValues":[1]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1],"srrp":{"stages":1,"bid":1,"rootPrice":1,"baseValues":[]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1],"srrp":{"stages":1,"bid":1,"rootPrice":1,"baseValues":[1],"baseProbs":[0.5,0.5]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1],"srrp":{"stages":1,"rootPrice":1,"baseValues":[1]}}`,
		`{"model":"srrp","class":"c1.medium","demand":[1,1],"srrp":{"stages":1,"bids":[1,2],"rootPrice":1,"baseValues":[1]}}`,
		`{"model":"drrp","class":"c1.medium","demand":[1],"bogusField":1}`,
	}
	for i, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: want parse/validation error for %s", i, in)
		}
	}
}

func TestUniformBaseProbsDefault(t *testing.T) {
	in := `{
	  "model": "srrp",
	  "class": "c1.medium",
	  "demand": [0.4, 0.4],
	  "srrp": {"stages": 1, "bid": 1.0, "rootPrice": 0.06,
	           "baseValues": [0.05, 0.06, 0.07]}
	}`
	ins, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ins.Solve(mip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bid above all values: 3 kept states, no OOB → 1 + 3 vertices.
	if res.TreeVertices != 4 {
		t.Fatalf("vertices %d", res.TreeVertices)
	}
}
