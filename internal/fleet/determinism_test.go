package fleet

import (
	"context"
	"errors"
	"math"
	"testing"

	"rentplan/internal/market"
)

// Shard-count bit-identity is the package's core contract: the partition
// only changes which goroutine touches an ASP, never what happens to it.
// Both populations are prime-sized, so shard ranges are uneven; the second
// snaps its bids to a 1-cent grid, so most ASPs tie and every tie group
// straddles shard boundaries.
func TestShardCountBitIdentical(t *testing.T) {
	tied := testConfig(t, 3001, 1).Population
	for i := range tied {
		tied[i].Bid = math.Ceil(tied[i].Bid*100) / 100
	}
	for _, pop := range [][]ASP{testConfig(t, 257, 1).Population, tied} {
		shardCountBitIdentical(t, pop)
	}
}

func shardCountBitIdentical(t *testing.T, pop []ASP) {
	t.Helper()
	var ref *Result
	for _, shards := range []int{1, 4, 8} {
		cfg := testConfig(t, 1, shards)
		cfg.Population = pop
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%d ASPs, shards=%d: %v", len(pop), shards, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.TotalCost != ref.TotalCost || res.DemandGB != ref.DemandGB {
			t.Fatalf("shards=%d aggregate diverges: cost %v/%v demand %v/%v",
				shards, res.TotalCost, ref.TotalCost, res.DemandGB, ref.DemandGB)
		}
		if res.FinalBaseSpot != ref.FinalBaseSpot {
			t.Fatalf("shards=%d final clearing price diverges: %v vs %v", shards, res.FinalBaseSpot, ref.FinalBaseSpot)
		}
		for e := range ref.Epochs {
			if res.Epochs[e] != ref.Epochs[e] {
				t.Fatalf("shards=%d epoch %d diverges:\n%+v\n%+v", shards, e, res.Epochs[e], ref.Epochs[e])
			}
		}
		for i := range ref.PerASP {
			if res.PerASP[i] != ref.PerASP[i] {
				t.Fatalf("shards=%d ASP %d outcome diverges:\n%+v\n%+v", shards, i, res.PerASP[i], ref.PerASP[i])
			}
		}
	}
}

func TestRepeatedRunsBitIdentical(t *testing.T) {
	a, err := Run(testConfig(t, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, 100, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost || a.Wakes != b.Wakes || a.FinalBaseSpot != b.FinalBaseSpot {
		t.Fatalf("repeated runs diverge: %+v vs %+v", a, b)
	}
}

// Cancellation mid-epoch must abort promptly with ctx's error and leave no
// worker goroutine behind (RunCtx joins its WaitGroup before returning).
// Cancelling after the last epoch races the workers' handover, which a
// worker that sees ctx first skips: that run must fail too, not return
// missing outcomes or wait for them.
func TestCancellationAbortsMidEpoch(t *testing.T) {
	const epochs = 50
	for _, at := range []int{1, epochs - 1} {
		cfg := testConfig(t, 400, 4)
		cfg.Epochs = epochs
		ctx, cancel := context.WithCancel(context.Background())
		fired := false
		cfg.OnEpoch = func(rep EpochReport) {
			if rep.Epoch == at && !fired {
				fired = true
				cancel()
			}
		}
		res, err := RunCtx(ctx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after epoch %d: err = %v, want context.Canceled", at, err)
		}
		if res != nil {
			t.Fatalf("cancel after epoch %d: cancelled run returned a result: %+v", at, res)
		}
		if !fired {
			t.Fatalf("cancel after epoch %d: OnEpoch hook never fired before cancellation", at)
		}
	}
}

func TestCancellationBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, testConfig(t, 50, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPollingCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPollingCtx(ctx, testConfig(t, 50, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A shard boundary must never split behaviour: the same population with a
// different class and capacity regime still agrees across shard counts when
// the feedback loop is actively moving prices every epoch.
func TestShardIdentityUnderActiveFeedback(t *testing.T) {
	pop, err := SamplePopulation(90, market.M1Large, 9)
	if err != nil {
		t.Fatal(err)
	}
	base := &Config{
		Class:      market.M1Large,
		Population: pop,
		Epochs:     6,
		EpochHours: 48,
		Feedback:   0.6,
		Capacity:   90 * 48 / 10, // starved: price must climb
		Seed:       21,
	}
	var ref *Result
	for _, shards := range []int{1, 5} {
		cfg := *base
		cfg.Shards = shards
		res, err := Run(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.FinalBaseSpot != ref.FinalBaseSpot || res.TotalCost != ref.TotalCost {
			t.Fatalf("active-feedback run diverges across shards: %v/%v vs %v/%v",
				res.FinalBaseSpot, res.TotalCost, ref.FinalBaseSpot, ref.TotalCost)
		}
	}
	if ref.Epochs[len(ref.Epochs)-1].BaseSpot <= ref.Epochs[0].BaseSpot {
		t.Fatalf("starved capacity did not move the clearing level: %+v", ref.Epochs)
	}
}
