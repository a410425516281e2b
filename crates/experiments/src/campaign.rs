//! Campaign hosting: the glue between [`crate::sweep::ScenarioGrid`]
//! and the `bbr-campaign` runtime.
//!
//! The campaign crate deliberately knows nothing above the scenario
//! layer, so two pieces live here: the [`build_backend`] factory that
//! worker processes use to turn a plan's backend selectors into live
//! [`SimBackend`]s, and the canned grids the `figures campaign`
//! subcommand (and its tests) run. Any binary becomes a valid campaign
//! host by routing its argv through [`maybe_worker`] first thing in
//! `main`.

use bbr_campaign::{BackendFactory, BackendSel, CampaignPlan};
use bbr_scenario::SimBackend;

use crate::aggregate::buffer_sizes;
use crate::scenarios::{CampaignParams, COMBOS};
use crate::sweep::{backend_named, Backend, ScenarioGrid, TopologyKind};
use crate::Effort;

/// The backend factory of this workspace's campaign hosts: plan
/// selectors name store columns (`"fluid"`, `"fluid-simd"`,
/// `"packet"`), [`backend_named`] builds each, and the plan's effort tag
/// picks the fluid integration step. Packet backends are built with
/// `runs = 1` — campaigns persist every repetition under its own
/// `run_index` key and average at read time.
///
/// `"fluid"` is served by the lockstep waves ([`BatchedFluidBackend`]):
/// campaign workers hand it their whole shard in one batch, and since
/// its outcomes are byte-identical to the per-cell `FluidBackend`,
/// stores written by either engine (including every pre-existing store)
/// remain interchangeable. `"fluid-simd"` is the packed vector engine
/// ([`SimdFluidBackend`]) — a *distinct* store column, because its
/// transcendental kernels are tolerance-bound rather than byte-bound
/// (see `docs/ARCHITECTURE.md`), so its records never mix with
/// `"fluid"` ones.
///
/// [`BatchedFluidBackend`]: bbr_fluidbatch::BatchedFluidBackend
/// [`SimdFluidBackend`]: bbr_fluidbatch::SimdFluidBackend
pub fn build_backend(plan: &CampaignPlan, sel: &BackendSel) -> Option<Box<dyn SimBackend>> {
    backend_named(&sel.name, Effort::from_tag(&plan.effort)?, 1)
}

/// Worker-mode entry point for host binaries (see
/// [`bbr_campaign::maybe_worker`]); returns the exit code to pass to
/// [`std::process::exit`] when `args` is a worker invocation.
pub fn maybe_worker(args: &[String]) -> Option<i32> {
    let factory: &BackendFactory = &build_backend;
    bbr_campaign::maybe_worker(args, factory)
}

/// The grid the `figures campaign` subcommand runs at the given effort,
/// restricted to `topologies`.
///
/// * `Effort::Fast` — a cheap 36-cell demo (3 mixes × 2 buffers × 2
///   qdiscs × {dumbbell, parking lot, chain}) with short windows, small
///   flow counts, and 2 packet repetitions per cell; used by CI smoke
///   runs and the CLI integration test.
/// * `Effort::Full` — the §4.3-shaped campaign (all 7 mixes × 1–7 BDP
///   buffers × both qdiscs) on the paper's network parameters.
pub fn campaign_grid(effort: Effort, topologies: Vec<TopologyKind>) -> ScenarioGrid {
    if effort.is_fast() {
        ScenarioGrid::new()
            .effort(effort)
            .backend(Backend::Both)
            .capacity(30.0)
            .combos(vec![COMBOS[0], COMBOS[3], COMBOS[4]])
            .flow_counts(vec![2])
            .buffers_bdp(vec![1.0, 4.0])
            .qdiscs(vec![
                bbr_scenario::QdiscKind::DropTail,
                bbr_scenario::QdiscKind::Red,
            ])
            .topologies(topologies)
            .duration(1.0)
            .warmup(0.25)
            .runs(2)
            .seed(42)
    } else {
        ScenarioGrid::from_campaign(&CampaignParams::default_rtt())
            .effort(effort)
            .backend(Backend::Both)
            .all_combos()
            .buffers_bdp(buffer_sizes(effort))
            .qdiscs(vec![
                bbr_scenario::QdiscKind::DropTail,
                bbr_scenario::QdiscKind::Red,
            ])
            .topologies(topologies)
    }
}

/// Every topology family a campaign can sweep (the CLI's default).
pub fn all_topologies() -> Vec<TopologyKind> {
    vec![
        TopologyKind::Dumbbell,
        TopologyKind::ParkingLot,
        TopologyKind::Chain,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_known_backends_only() {
        let plan = CampaignPlan {
            effort: "fast".into(),
            backends: vec![],
            cells: vec![],
        };
        let sel = |name: &str| BackendSel {
            name: name.into(),
            runs: 1,
        };
        assert_eq!(
            build_backend(&plan, &sel("fluid")).map(|b| b.name()),
            Some("fluid")
        );
        assert_eq!(
            build_backend(&plan, &sel("packet")).map(|b| b.name()),
            Some("packet")
        );
        assert!(build_backend(&plan, &sel("ns3")).is_none());
        // Unknown effort tags are an error, not a silent default.
        let bad = CampaignPlan {
            effort: "warp".into(),
            backends: vec![],
            cells: vec![],
        };
        assert!(build_backend(&bad, &sel("fluid")).is_none());
    }

    #[test]
    fn fast_campaign_grid_is_at_least_24_cells() {
        let grid = campaign_grid(Effort::Fast, all_topologies());
        // 12 dumbbell + 12 parking lot + 12 chain.
        assert_eq!(grid.len(), 36);
        assert!(grid.len() >= 24);
        let plan = grid.campaign_plan();
        assert_eq!(plan.cells.len(), 36);
        assert_eq!(plan.effort, "fast");
        assert_eq!(plan.backends.len(), 2);
        assert_eq!(plan.backends[1].runs, 2); // packet repetitions
    }

    #[test]
    fn non_worker_args_pass_through() {
        assert_eq!(maybe_worker(&["sweep".to_string()]), None);
        assert_eq!(maybe_worker(&[]), None);
    }
}
