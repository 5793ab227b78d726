package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload in smoke mode, untraced and traced, with
// every answer check on: a broken harness or a wrong answer fails here in
// seconds instead of after a full benchmark run.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	daemon := filepath.Join(dir, "rentpland")
	if out, err := exec.Command("go", "build", "-o", daemon, "rentplan/cmd/rentpland").CombinedOutput(); err != nil {
		t.Fatalf("build rentpland: %v\n%s", err, out)
	}
	for _, w := range []string{"serve-dp", "serve-milp", "fleet", "nested"} {
		for _, trace := range []bool{false, true} {
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 1, seconds: 2, trace: trace, smoke: true, daemon: daemon, out: dir}
				o, err := workloads[w](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(o.wrong) > 0 {
					t.Fatalf("wrong answers: %v", o.wrong)
				}
				if o.attempted < 1 || o.failed != 0 {
					t.Fatalf("attempted %d, failed %d", o.attempted, o.failed)
				}
				if trace {
					return
				}
				for _, m := range endToEnd {
					if v := o.metrics[m].Value; v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, v)
					}
				}
			})
		}
	}
}

// TestCheckAnswersFlagsWrongCost feeds the serve answer check a correct
// and a perturbed answer for the same instances: the perturbed one must be
// reported, and a plan reuse that misquotes its plan too.
func TestCheckAnswersFlagsWrongCost(t *testing.T) {
	for _, sh := range []serveShape{dpShape(true), milpShape(true)} {
		w, err := newWorld(sh, 7)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*job
		for len(jobs) < 3*sh.active {
			jobs = append(jobs, w.next())
		}
		// Pick one join and the first two steps of one tenant.
		var join, step, reuse *job
		for _, j := range jobs {
			if j.srrp && join == nil {
				join = j
			}
			if !j.srrp && j.slot == 0 && j.prev == join && join != nil {
				step = j
			}
			if !j.srrp && j.slot == 1 && step != nil && j.prev == step {
				reuse = j
				break
			}
		}
		if join == nil || step == nil || reuse == nil {
			t.Fatalf("%s: no join/step/reuse chain in the sequence", sh.name)
		}
		full := "full"
		for _, j := range []*job{join, step} {
			ref, err := reference(sh, j)
			if err != nil {
				t.Fatal(err)
			}
			j.code, j.ans = 200, answer{Cost: ref, Rung: full}
			g := 0.0
			j.ans.Generate = &g
		}
		step.inv = step.t.demand[0] // covers the slot without generating
		reuse.code, reuse.ans = 200, answer{Cost: step.ans.Cost, Rung: full, PlanReuse: true}
		reuse.inv = step.t.demand[1]
		g := 0.0
		reuse.ans.Generate = &g
		// The step's reference depends on the inventory it was sent with.
		ref, err := reference(sh, step)
		if err != nil {
			t.Fatal(err)
		}
		step.ans.Cost = ref
		reuse.ans.Cost = ref
		set := []*job{join, step, reuse}
		if wrong := checkAnswers(sh, set); len(wrong) != 0 {
			t.Fatalf("%s: correct answers flagged: %v", sh.name, wrong)
		}
		step.ans.Cost = ref * (1 + 1e-6)
		if wrong := checkAnswers(sh, set); len(wrong) != 2 {
			t.Fatalf("%s: want the perturbed step and the reuse that quotes a different plan cost flagged, got %v", sh.name, wrong)
		}
	}
}
