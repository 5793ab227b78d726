// Package rentplan is a pure-Go reproduction of "Optimal Resource Rental
// Planning for Elastic Applications in Cloud Market" (Zhao, Pan, Liu, Li,
// Fang — IEEE IPDPS 2012).
//
// The repository implements the paper's two planning models and every
// substrate they depend on, with no dependencies outside the standard
// library:
//
//   - internal/core — DRRP (deterministic MILP / Wagner–Whitin planning)
//     and SRRP (multistage stochastic planning on bid-adjusted scenario
//     trees), plus the execution layer that evaluates rental policies
//     against realised spot prices.
//   - internal/lp, internal/mip — a bounded-variable two-phase primal
//     simplex (with duals and Farkas certificates) and a branch-and-bound
//     MILP solver.
//   - internal/benders — the nested multistage L-shaped method (Birge),
//     the decomposition the paper cites for SRRP.
//   - internal/lotsize — exact polynomial dynamic programs: Wagner–Whitin,
//     the Florian–Klein equal-capacity DP, and a Guan–Miller-style
//     scenario-tree DP.
//   - internal/market — Amazon-style pricing and an auction-driven spot
//     price simulator calibrated to the paper's published statistics.
//   - internal/stats, internal/timeseries, internal/arima,
//     internal/optimize — the statistics and SARIMA forecasting stack of
//     the paper's spot-price predictability study.
//   - internal/scenario — bid-dependent dynamic sampling (Eq. 10) and
//     multistage scenario-tree construction.
//   - internal/demand — workload (demand) processes.
//   - internal/spec — the JSON instance format behind `rentplan -spec`.
//   - internal/experiments — one harness per figure of the evaluation
//     section (Figs. 3–8, 10–12), plus extension and robustness studies.
//
// The top-level bench suite (bench_test.go) regenerates every figure and
// runs the ablation studies; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-versus-measured results.
package rentplan
