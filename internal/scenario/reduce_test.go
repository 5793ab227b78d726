package scenario

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rentplan/internal/lotsize"
)

func twoStageTree() *Tree {
	return &Tree{
		Parent:   []int{-1, 0, 0, 1, 1, 2, 2},
		Prob:     []float64{1, 0.6, 0.4, 0.3, 0.3, 0.2, 0.2},
		Stage:    []int{0, 1, 1, 2, 2, 2, 2},
		Price:    []float64{1, 0.8, 1.2, 0.7, 0.9, 1.1, 1.3},
		OutOfBid: []bool{false, false, false, false, false, false, false},
	}
}

func TestFanValidate(t *testing.T) {
	ok := &Fan{
		Paths: [][]float64{{1, 0.8}, {1, 1.2}},
		Probs: []float64{0.5, 0.5},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fan rejected: %v", err)
	}
	cases := []struct {
		name string
		fan  *Fan
		want string
	}{
		{"empty", &Fan{}, "empty"},
		{"prob mismatch", &Fan{Paths: [][]float64{{1}}, Probs: []float64{0.5, 0.5}}, "probabilities"},
		{"ragged", &Fan{Paths: [][]float64{{1, 2}, {1}}, Probs: []float64{0.5, 0.5}}, "length"},
		{"nan price", &Fan{Paths: [][]float64{{1, math.NaN()}}, Probs: []float64{1}}, "price"},
		{"zero price", &Fan{Paths: [][]float64{{1, 0}}, Probs: []float64{1}}, "price"},
		{"negative prob", &Fan{Paths: [][]float64{{1}, {2}}, Probs: []float64{1.5, -0.5}}, "probability"},
		{"nan prob", &Fan{Paths: [][]float64{{1}, {2}}, Probs: []float64{math.NaN(), 1}}, "probability"},
		{"mass off", &Fan{Paths: [][]float64{{1}, {2}}, Probs: []float64{0.5, 0.3}}, "mass"},
	}
	for _, c := range cases {
		err := c.fan.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSampleFanDeterministic(t *testing.T) {
	tr := twoStageTree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := tr.SampleFan(40, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.SampleFan(40, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 40 || a.Stages() != 3 {
		t.Fatalf("fan %dx%d, want 40x3", a.Len(), a.Stages())
	}
	for i := range a.Paths {
		for s := range a.Paths[i] {
			if a.Paths[i][s] != b.Paths[i][s] {
				t.Fatalf("same seed diverged at path %d stage %d", i, s)
			}
		}
	}
	if _, err := tr.SampleFan(0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero sample size accepted")
	}
}

// chainValue is the exact optimal lot-sizing cost of a single price path:
// a linear-chain tree whose Setup costs are the stage prices. The per-path
// purchase indicator is at most 1 per stage, so the value is 1-Lipschitz
// in the L1 path metric — the premise of the Reduce error bound.
func chainValue(t *testing.T, path, demand []float64) float64 {
	n := len(path)
	tp := &lotsize.TreeProblem{
		Parent: make([]int, n),
		Prob:   make([]float64, n),
		Setup:  append([]float64(nil), path...),
		Unit:   make([]float64, n),
		Hold:   make([]float64, n),
		Demand: append([]float64(nil), demand...),
	}
	for v := 0; v < n; v++ {
		tp.Parent[v] = v - 1
		tp.Prob[v] = 1
		tp.Unit[v] = 0.05
		tp.Hold[v] = 0.1
	}
	sol, err := lotsize.SolveTree(tp)
	if err != nil {
		t.Fatalf("chain solve: %v", err)
	}
	return sol.Cost
}

// TestReduceBoundProperty is the property test of the reduction error
// bound: for the wait-and-see value WS(F) = Σ_i p_i V(path_i) with V the
// exact per-path lot-sizing optimum (1-Lipschitz in the L1 path metric),
// |WS(F) − WS(F')| must not exceed the transport bound Reduce reports.
func TestReduceBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		m := 6 + rng.Intn(10)
		T := 3 + rng.Intn(4)
		f := &Fan{Paths: make([][]float64, m), Probs: make([]float64, m)}
		total := 0.0
		for i := 0; i < m; i++ {
			f.Paths[i] = make([]float64, T)
			for s := 0; s < T; s++ {
				f.Paths[i][s] = 0.5 + rng.Float64()
			}
			f.Probs[i] = 0.1 + rng.Float64()
			total += f.Probs[i]
		}
		for i := range f.Probs {
			f.Probs[i] /= total
		}
		demand := make([]float64, T)
		for s := range demand {
			demand[s] = rng.Float64() * 2
		}
		k := 1 + rng.Intn(m-1)
		red, bound, err := f.Reduce(k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if red.Len() != k {
			t.Fatalf("trial %d: reduced to %d, want %d", trial, red.Len(), k)
		}
		if err := red.Validate(); err != nil {
			t.Fatalf("trial %d: reduced fan invalid: %v", trial, err)
		}
		if bound < 0 {
			t.Fatalf("trial %d: negative bound %v", trial, bound)
		}
		ws := 0.0
		for i := range f.Paths {
			ws += f.Probs[i] * chainValue(t, f.Paths[i], demand)
		}
		wsRed := 0.0
		for i := range red.Paths {
			wsRed += red.Probs[i] * chainValue(t, red.Paths[i], demand)
		}
		if diff := math.Abs(ws - wsRed); diff > bound+1e-9 {
			t.Fatalf("trial %d: |WS gap| %v exceeds transport bound %v (m=%d k=%d)", trial, diff, bound, m, k)
		}
	}
}

func TestReduceDegenerateAndDeterministic(t *testing.T) {
	f := &Fan{
		Paths: [][]float64{{1, 2}, {1, 2.1}, {1, 5}},
		Probs: []float64{0.4, 0.4, 0.2},
	}
	// k ≥ m is a no-op copy with a zero bound.
	same, bound, err := f.Reduce(3)
	if err != nil || bound != 0 || same.Len() != 3 {
		t.Fatalf("no-op reduce: %v %v %d", err, bound, same.Len())
	}
	same.Probs[0] = 0.9
	if f.Probs[0] != 0.4 {
		t.Fatal("Reduce returned an aliased fan")
	}
	if _, _, err := f.Reduce(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// The two near-identical paths merge first (the tie on p·d = 0.4·0.1
	// deletes the lower index, path 0); mass moves to the nearest
	// neighbour, path 1.
	red, bound, err := f.Reduce(2)
	if err != nil {
		t.Fatal(err)
	}
	if red.Len() != 2 {
		t.Fatalf("reduced length %d", red.Len())
	}
	if math.Abs(bound-0.4*0.1) > 1e-12 {
		t.Fatalf("bound %v, want 0.04", bound)
	}
	if math.Abs(red.Probs[0]-0.8) > 1e-12 || red.Paths[0][1] != 2.1 {
		t.Fatalf("mass redistribution wrong: %+v", red)
	}
	// Determinism: a second run reproduces the same reduction bit for bit.
	red2, bound2, err := f.Reduce(2)
	if err != nil || bound2 != bound {
		t.Fatalf("second run: %v bound %v vs %v", err, bound2, bound)
	}
	for i := range red.Paths {
		if red2.Probs[i] != red.Probs[i] {
			t.Fatal("second run diverged")
		}
	}
}

// TestFanTreeRoundtrip enumerates every root-leaf path of a tree as a fan
// and folds it back: the prefix merge must rebuild the identical tree.
func TestFanTreeRoundtrip(t *testing.T) {
	tr := twoStageTree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	f := &Fan{}
	for _, leaf := range tr.Leaves() {
		var prices []float64
		for _, v := range tr.Path(leaf) {
			prices = append(prices, tr.Price[v])
		}
		f.Paths = append(f.Paths, prices)
		f.Probs = append(f.Probs, tr.Prob[leaf])
	}
	rt, err := f.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if rt.N() != tr.N() {
		t.Fatalf("roundtrip has %d vertices, want %d", rt.N(), tr.N())
	}
	for v := 0; v < tr.N(); v++ {
		if rt.Parent[v] != tr.Parent[v] || rt.Stage[v] != tr.Stage[v] || rt.Price[v] != tr.Price[v] {
			t.Fatalf("vertex %d mismatch: %d/%d/%g vs %d/%d/%g",
				v, rt.Parent[v], rt.Stage[v], rt.Price[v], tr.Parent[v], tr.Stage[v], tr.Price[v])
		}
		if math.Abs(rt.Prob[v]-tr.Prob[v]) > 1e-12 {
			t.Fatalf("vertex %d probability %v, want %v", v, rt.Prob[v], tr.Prob[v])
		}
	}
	// A sampled fan folds into a valid (sub)tree as well.
	sf, err := tr.SampleFan(60, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sf.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stages() != tr.Stages() {
		t.Fatalf("sampled tree has %d stages, want %d", st.Stages(), tr.Stages())
	}
	// Mismatched root prices must be rejected.
	bad := &Fan{Paths: [][]float64{{1, 2}, {1.5, 2}}, Probs: []float64{0.5, 0.5}}
	if _, err := bad.Tree(); err == nil {
		t.Fatal("mismatched roots accepted")
	}
}
