package mip

import "time"

// Wall-clock access for this package is funnelled through the two helpers
// below. Wall time feeds only observability (Stats.Elapsed, the incumbent
// trajectory timestamps, Progress rate-limiting) — never a branching,
// bounding, pruning or stopping decision; deadlines arrive through the
// caller's context — so the search itself stays deterministic for
// Workers = 1. The nondeterm analyzer flags any new direct
// time.Now/time.Since call elsewhere in the package, keeping that
// invariant honest.

// now returns the current wall-clock time.
//
//lint:ignore rentlint/nondeterm sole sanctioned clock read: wall time feeds only observability, never search decisions
func now() time.Time { return time.Now() }

// since returns the wall-clock time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }
