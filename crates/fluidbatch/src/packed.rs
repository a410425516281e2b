//! The SIMD-packed fluid backend: four structurally identical scenarios
//! integrated per packed lane ([`SimdFluidBackend`], name `"fluid-simd"`).
//!
//! # Cross-lane packing
//!
//! The backend runs the fluid engine over `F64x4` lanes: every logical
//! scalar of the step loop (a queue length, an RTT, a window, a CCA mode
//! timer) becomes one packed value holding four pack members' copies,
//! and each stage executes once per *pack* instead of once per scenario.
//! The step loop, history arena, lookups and metrics are the `f64`
//! lanes' own code; this module holds what differs: the packed queue
//! kernels and CCA state machines (the engine's `LaneAgent` for
//! `F64x4`), and the grouping of jobs into packs.
//!
//! Packing requires the members to share every **structural** quantity —
//! flow count, topology wiring, capacities, delays, CCA assignment,
//! qdisc, duration, churn windows — because those decide loop bounds,
//! lookup geometry, and branch structure. The pack key
//! ([`struct_key`]) is the spec's stable hash with the buffer size
//! neutralized: buffer depth is the one sweep axis that only ever enters
//! the model as per-lane *data* (link buffer, BBRv2's buffer-dependent
//! `inflight_hi`, the drop-gate fill ratio), so sweeping it is exactly
//! the grid shape this engine accelerates — the pinned 96-cell bench
//! grid packs into 24 full packs with zero padding.
//!
//! Partial packs are padded by replicating member 0; every operation is
//! element-wise (pack mates never interact), so padding lanes are
//! discarded without influencing any member's result, and pack
//! composition is invisible in outcomes (tested below).
//!
//! # Why `"fluid-simd"`, not `"fluid"`
//!
//! The primitive lane ops are bit-identical to scalar f64 by
//! construction, but the transcendental stages (the queue drop gate's
//! `powf`, the pacing sigmoids, CUBIC's `cbrt`) run against the packed
//! polynomial kernels of `bbr_fluid_core::lanes`, which are
//! deterministic and element-wise but **not** bit-identical to libm.
//! Per the byte-identity contract in `docs/ARCHITECTURE.md`, an engine
//! that cannot prove bit-identity must not share the `"fluid"` name:
//! this backend reports `"fluid-simd"`, so its rows never collide with
//! `"fluid"` store keys, and its agreement with the scalar model is
//! enforced by tolerance-based consistency tests instead
//! (`tests/simd_consistency.rs` mirrors `tests/backend_consistency.rs`).
//!
//! Specs whose configuration leaves the packed fast path's state space
//! (start-up modelling, smooth reset mode, unset-`w_lo` semantics) fall
//! back to `f64` lanes, still reported as `"fluid-simd"`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use bbr_fluid_core::backend::hint_for_flow;
use bbr_fluid_core::cca::cubic::{CUBIC_BETA, CUBIC_C};
use bbr_fluid_core::cca::{AgentInputs, AnyCca, ScenarioHint};
use bbr_fluid_core::config::{ModelConfig, ResetMode};
use bbr_fluid_core::lanes::{cbrt4, exp2_4, pow4, pulse4, sigmoid4, F64x4, Lanes, M64x4, LANES};
use bbr_fluid_core::sim::LaneAgent;
use bbr_fluid_core::topology::{LinkSpec, Network, QdiscKind};
use bbr_scenario::{BatchSimBackend, RunOutcome, ScenarioSpec, SimBackend, Topology};

use crate::{run_waves, BatchedFluidBackend};

/// The backend name reported for every outcome of this engine (see the
/// module docs for why it is distinct from `"fluid"`).
pub const SIMD_BACKEND_NAME: &str = "fluid-simd";

/// The structural pack key: the spec's stable hash with the buffer-depth
/// axis neutralized. Two specs with equal keys agree on every quantity
/// that shapes the step loop (flows, links, delays, capacities, CCAs,
/// qdisc, duration, churn) and may differ only in buffer depth, which
/// enters the model purely as per-lane data.
pub fn struct_key(spec: &ScenarioSpec) -> u64 {
    let mut s = spec.clone();
    match &mut s.topology {
        Topology::Dumbbell { buffer_bdp, .. }
        | Topology::ParkingLot { buffer_bdp, .. }
        | Topology::Chain { buffer_bdp, .. } => *buffer_bdp = 1.0,
        Topology::Custom { links, .. } => {
            for l in links {
                l.buffer_bdp = 1.0;
            }
        }
    }
    s.stable_hash()
}

/// Whether the packed fast path covers this configuration. Outside it
/// (start-up modelling, smooth BBRv1 reset, unset-`w_lo` semantics) the
/// CCA state machines take branches the packed kernels do not mirror,
/// and the backend falls back to `f64` lanes.
fn packable(cfg: &ModelConfig) -> bool {
    !cfg.model_startup && matches!(cfg.reset_mode, ResetMode::Discrete) && !cfg.bbr2_wlo_unset
}

// ---------------------------------------------------------------------
// Packed CCA kernels (mirrors of `bbr_fluid_core::cca`).
// ---------------------------------------------------------------------

/// Gather one f64 field from four same-kind agents into a pack.
#[inline]
fn gather(lanes: &[&AnyCca; LANES], f: impl Fn(&AnyCca) -> f64) -> F64x4 {
    F64x4(std::array::from_fn(|k| f(lanes[k])))
}

/// Gather one bool field from four same-kind agents into a mask.
#[inline]
fn gather_mask(lanes: &[&AnyCca; LANES], f: impl Fn(&AnyCca) -> bool) -> M64x4 {
    M64x4(std::array::from_fn(
        |k| if f(lanes[k]) { u64::MAX } else { 0 },
    ))
}

/// Packed RTprop filter + ProbeRTT state machine (`cca::bbr_common`).
struct PackedProbeRtt {
    tau_min: F64x4,
    active: M64x4,
    timer: F64x4,
}

impl PackedProbeRtt {
    /// Mirror of `ProbeRtt::step`; returns the per-lane toggle mask.
    #[inline(always)]
    fn step4(&mut self, dt: f64, tau_fb: F64x4, cfg: &ModelConfig) -> M64x4 {
        let zero = F64x4::zero();
        let gap = self.tau_min - tau_fb;
        let m_gap = gap.gt(zero);
        self.tau_min = m_gap.select(
            self.tau_min - gap * (dt * cfg.rtt_filter_gain),
            self.tau_min,
        );
        self.timer = (m_gap & !self.active).select(zero, self.timer);
        self.timer = self.timer + dt;
        let period = self.active.select(
            F64x4::splat(cfg.probe_rtt_duration),
            F64x4::splat(cfg.probe_rtt_interval),
        );
        let m_tog = self.timer.ge(period);
        self.active = self.active ^ m_tog;
        self.timer = m_tog.select(zero, self.timer);
        m_tog
    }
}

/// Packed Reno (`cca::reno`).
pub(crate) struct PackedReno {
    w: F64x4,
}

impl PackedReno {
    #[inline(always)]
    fn rate4(&self, tau: F64x4, cfg: &ModelConfig) -> F64x4 {
        self.w * cfg.mss / tau.max(F64x4::splat(1e-6))
    }

    #[inline(always)]
    fn step4(&mut self, inp: &AgentInputs<F64x4>, cfg: &ModelConfig) {
        let one = F64x4::splat(1.0);
        let x_pkts = inp.x_fb / cfg.mss;
        let p = inp.loss_fb.clamp(0.0, 1.0);
        let dw = x_pkts * (one - p) / self.w.max(one) - x_pkts * p * self.w / 2.0;
        self.w = (self.w + dw * inp.dt).max(one);
    }
}

/// Packed CUBIC (`cca::cubic`), with the same `(w_max, shrink) → K`
/// memoization as the scalar model — rebuilt per pack, so it is plain
/// owned state with no `Cell` sharing hazards under multicore fan-out
/// (replaying or recomputing `K` is equivalent either way: `cbrt4` is
/// deterministic on input bits).
pub(crate) struct PackedCubic {
    s: F64x4,
    w_max: F64x4,
    memo_w: [u64; LANES],
    memo_shrink: f64,
    memo_k: F64x4,
    memo_set: bool,
}

impl PackedCubic {
    #[inline(always)]
    fn k_offset4(&mut self, cfg: &ModelConfig) -> F64x4 {
        let shrink = if cfg.cubic_literal_b {
            CUBIC_BETA
        } else {
            1.0 - CUBIC_BETA
        };
        if !(self.memo_set && self.memo_shrink == shrink && self.w_max.to_bits() == self.memo_w) {
            self.memo_k = cbrt4(self.w_max * shrink / CUBIC_C);
            self.memo_w = self.w_max.to_bits();
            self.memo_shrink = shrink;
            self.memo_set = true;
        }
        self.memo_k
    }

    #[inline(always)]
    fn window4(&mut self, cfg: &ModelConfig) -> F64x4 {
        let k = self.k_offset4(cfg);
        let d = self.s - k;
        (F64x4::splat(CUBIC_C) * d * d * d + self.w_max).max(F64x4::splat(1.0))
    }

    #[inline(always)]
    fn rate4(&mut self, tau: F64x4, cfg: &ModelConfig) -> F64x4 {
        self.window4(cfg) * cfg.mss / tau.max(F64x4::splat(1e-6))
    }

    #[inline(always)]
    fn step4(&mut self, inp: &AgentInputs<F64x4>, cfg: &ModelConfig) {
        let x_pkts = inp.x_fb / cfg.mss;
        let p = inp.loss_fb.clamp(0.0, 1.0);
        let loss_rate = x_pkts * p;
        let w = self.window4(cfg);
        let ds = F64x4::splat(1.0) - self.s * loss_rate;
        let dw_max = (w - self.w_max) * loss_rate;
        self.s = (self.s + ds * inp.dt).max(F64x4::zero());
        self.w_max = (self.w_max + dw_max * inp.dt).max(F64x4::splat(1.0));
    }
}

/// Packed BBRv1 (`cca::bbrv1`, Discrete reset mode only — enforced by
/// [`packable`]). The probing phase `φ_i = i mod 6` is structural (same
/// flow index in every pack member), so it stays a scalar.
pub(crate) struct PackedBbrV1 {
    prt: PackedProbeRtt,
    t_pbw: F64x4,
    x_btl: F64x4,
    x_max: F64x4,
    v: F64x4,
    phase: f64,
}

impl PackedBbrV1 {
    #[inline(always)]
    fn min_rate4(&self, cfg: &ModelConfig) -> F64x4 {
        F64x4::splat(cfg.mss) / self.prt.tau_min.max(F64x4::splat(1e-6))
    }

    #[inline(always)]
    fn pacing4(&self, cfg: &ModelConfig) -> F64x4 {
        let tm = self.prt.tau_min;
        let up = pulse4(
            cfg.k_time,
            self.t_pbw,
            tm * self.phase,
            tm * (self.phase + 1.0),
        );
        let down = pulse4(
            cfg.k_time,
            self.t_pbw,
            tm * (self.phase + 1.0),
            tm * (self.phase + 2.0),
        );
        self.x_btl * (F64x4::splat(1.0) + up * 0.25 - down * 0.25)
    }

    #[inline(always)]
    fn rate4(&self, tau: F64x4, cfg: &ModelConfig) -> F64x4 {
        let tau = tau.max(F64x4::splat(1e-6));
        let w_pbw = (self.x_btl * self.prt.tau_min) * 2.0;
        let pbw = (w_pbw / tau)
            .min(self.pacing4(cfg))
            .max(self.min_rate4(cfg));
        let prt_rate = F64x4::splat(4.0 * cfg.mss) / tau;
        self.prt.active.select(prt_rate, pbw)
    }

    #[inline(always)]
    fn step4(&mut self, inp: &AgentInputs<F64x4>, cfg: &ModelConfig) {
        let zero = F64x4::zero();
        let m_tog = self.prt.step4(inp.dt, inp.tau_fb, cfg);
        // Re-entering ProbeBW: restart the probing period.
        let m_out = m_tog & !self.prt.active;
        self.t_pbw = m_out.select(zero, self.t_pbw);
        self.x_max = m_out.select(zero, self.x_max);

        // Inflight dynamics run in every mode (the scalar step updates v
        // before its ProbeRTT early return).
        let lost = inp.loss_fb * inp.x_fb;
        self.v = (self.v + (inp.x_cur - inp.x_dlv - lost) * inp.dt).max(zero);

        // ProbeBW machinery is frozen while draining for RTprop:
        // compute unconditionally, restore frozen lanes afterwards.
        let frozen = self.prt.active;
        let (s_t_pbw, s_x_btl, s_x_max) = (self.t_pbw, self.x_btl, self.x_max);

        let meas = if cfg.max_filter_on_send_rate {
            inp.x_cur
        } else {
            inp.x_dlv
        };
        let period = self.prt.tau_min * 8.0;
        self.x_max = self.x_max.max(meas);
        self.t_pbw = self.t_pbw + inp.dt;
        let m_wrap = self.t_pbw.ge(period);
        let m_adopt = m_wrap & self.x_max.gt(zero);
        self.x_btl = m_adopt.select(self.x_max.max(self.min_rate4(cfg)), self.x_btl);
        self.t_pbw = m_wrap.select(zero, self.t_pbw);
        self.x_max = m_wrap.select(meas, self.x_max);

        self.t_pbw = frozen.select(s_t_pbw, self.t_pbw);
        self.x_btl = frozen.select(s_x_btl, self.x_btl);
        self.x_max = frozen.select(s_x_max, self.x_max);
    }
}

/// Packed BBRv2 (`cca::bbrv2`). The period constant `2 + i/N` of
/// Eq. (24) is structural and stays a scalar; everything else — both
/// mode bits included — is per-lane state.
pub(crate) struct PackedBbrV2 {
    prt: PackedProbeRtt,
    t_pbw: F64x4,
    x_btl: F64x4,
    x_max: F64x4,
    x_max_prev: F64x4,
    m_dwn: M64x4,
    m_crs: M64x4,
    w_hi: F64x4,
    w_lo: F64x4,
    v: F64x4,
    period_const: f64,
}

impl PackedBbrV2 {
    #[inline(always)]
    fn min_rate4(&self, cfg: &ModelConfig) -> F64x4 {
        F64x4::splat(cfg.mss) / self.prt.tau_min.max(F64x4::splat(1e-6))
    }

    #[inline(always)]
    fn rate4(&self, tau: F64x4, cfg: &ModelConfig) -> F64x4 {
        let tau = tau.max(F64x4::splat(1e-6));
        let bdp = self.x_btl * self.prt.tau_min;
        // Eq. (31): the 0.85 headroom on w_hi is the model's literal
        // constant (distinct from cfg.bbr2_headroom, which shapes the
        // drain target); 0.85·∞ = ∞ covers the unset-w_hi case without
        // a branch.
        let two_bdp = bdp * 2.0;
        let win_crs = two_bdp.min(self.w_hi * 0.85).min(self.w_lo);
        let win = self.m_crs.select(win_crs, two_bdp.min(self.w_hi));
        let up_gate = sigmoid4(cfg.k_time, self.t_pbw - self.prt.tau_min);
        let one = F64x4::splat(1.0);
        let dwn = self.m_dwn.select(one, F64x4::zero());
        let pace = self.x_btl * (one + up_gate * 0.25 * (one - dwn) - dwn * 0.25);
        let normal = (win / tau).min(pace).max(self.min_rate4(cfg));
        let prt_rate = bdp * 0.5 / tau;
        self.prt.active.select(prt_rate, normal)
    }

    #[inline(always)]
    fn step4(&mut self, inp: &AgentInputs<F64x4>, cfg: &ModelConfig) {
        let zero = F64x4::zero();
        let m_tog = self.prt.step4(inp.dt, inp.tau_fb, cfg);
        // Re-entering ProbeBW: a fresh probing period begins.
        let m_out = m_tog & !self.prt.active;
        self.t_pbw = m_out.select(zero, self.t_pbw);
        self.m_dwn = self.m_dwn & !m_out;
        self.m_crs = self.m_crs & !m_out;
        self.x_max = m_out.select(zero, self.x_max);

        // Inflight dynamics with the loss debit, Eq. (19) extended.
        let lost = inp.loss_fb * inp.x_fb;
        self.v = (self.v + (inp.x_cur - inp.x_dlv - lost) * inp.dt).max(zero);

        // Everything below is frozen in ProbeRTT lanes (the scalar step
        // returns here when active): snapshot, compute, restore.
        let frozen = self.prt.active;
        let s_t_pbw = self.t_pbw;
        let s_x_btl = self.x_btl;
        let s_x_max = self.x_max;
        let s_x_max_prev = self.x_max_prev;
        let s_m_dwn = self.m_dwn;
        let s_m_crs = self.m_crs;
        let s_w_hi = self.w_hi;
        let s_w_lo = self.w_lo;

        let tau_raw = self.prt.tau_min;
        let tau_min = tau_raw.max(F64x4::splat(1e-6));
        // w̄ and w⁻ from the *raw* RTprop estimate, as in the scalar step.
        let w_bar = self.x_btl * tau_raw;
        let w_minus = w_bar.min(self.w_hi * cfg.bbr2_headroom);
        let loss = inp.loss_fb;
        let meas = if cfg.max_filter_on_send_rate {
            inp.x_cur
        } else {
            inp.x_dlv
        };
        let min_rate = self.min_rate4(cfg);
        let m_lossy = loss.ge(F64x4::splat(cfg.bbr2_loss_thresh));

        // Max filter over the current period.
        self.x_max = self.x_max.max(meas);

        // Mode transitions, Eqs. (26)–(27). The two arms of the scalar
        // else-if are mutually exclusive by construction (the up-phase
        // arm requires !m_dwn, the drain arm requires m_dwn), so both
        // masks can be computed from the pre-update modes.
        let m_probe = !self.m_crs & !self.m_dwn & self.t_pbw.gt(tau_min);
        let m_up_end = m_probe & (self.v.ge(w_bar * 1.25) | m_lossy);
        let target = self.x_max.max(self.x_max_prev);
        let m_adopt = m_up_end & target.gt(zero);
        self.x_btl = m_adopt.select(target.max(min_rate), self.x_btl);
        let m_drained = self.m_dwn & self.v.le(w_minus);
        self.m_dwn = (self.m_dwn | m_up_end) & !m_drained;
        self.m_crs = self.m_crs | m_drained;
        // Entering cruise: the short-term bound starts from the drain
        // target (unset-w_lo semantics are excluded by `packable`).
        self.w_lo = m_drained.select(w_minus, self.w_lo);

        // inflight_hi dynamics, Eq. (29), on the updated modes.
        let m_fin = self.w_hi.lt(F64x4::splat(f64::INFINITY));
        let probing = !self.m_crs & self.t_pbw.gt(tau_min);
        let m_grow = m_fin & probing & self.v.ge(self.w_hi * 0.98);
        if m_grow.any() {
            let e = (self.t_pbw / tau_min).min(F64x4::splat(cfg.bbr2_growth_exp_cap));
            let grow = F64x4::splat(inp.dt) * (F64x4::splat(cfg.mss) / tau_min) * exp2_4(e);
            self.w_hi = m_grow.select(self.w_hi + grow, self.w_hi);
        }
        let dec_hi = (self.w_hi - (F64x4::splat(inp.dt * cfg.bbr2_beta) / tau_min) * self.w_hi)
            .max(F64x4::splat(cfg.mss));
        self.w_hi = (m_fin & m_lossy).select(dec_hi, self.w_hi);
        self.w_hi = (!m_fin & m_lossy).select(self.v.max(F64x4::splat(cfg.mss)), self.w_hi);

        // inflight_lo dynamics, Eq. (30): decay toward the delivered
        // inflight under loss while cruising, assimilate to w⁻ outside.
        let m_lo_dec = self.m_crs & loss.gt(F64x4::splat(cfg.loss_gate_eps));
        let gap_lo = (self.w_lo - self.v).max(zero);
        let dec_lo = (self.w_lo - (F64x4::splat(inp.dt * cfg.bbr2_beta) / tau_min) * gap_lo)
            .max(F64x4::splat(cfg.mss));
        self.w_lo = m_lo_dec.select(dec_lo, self.w_lo);
        let assim = self.w_lo + F64x4::splat(inp.dt) * (w_minus - self.w_lo);
        self.w_lo = (!self.m_crs).select(assim, self.w_lo);

        // Period timer; wrap starts a new probing period.
        self.t_pbw = self.t_pbw + inp.dt;
        let period = (tau_raw * 63.0).min(F64x4::splat(self.period_const));
        let m_wrap = self.t_pbw.ge(period);
        self.t_pbw = m_wrap.select(zero, self.t_pbw);
        self.m_crs = self.m_crs & !m_wrap;
        self.m_dwn = self.m_dwn & !m_wrap;
        self.x_max_prev = m_wrap.select(self.x_max, self.x_max_prev);
        self.x_max = m_wrap.select(zero, self.x_max);
        self.w_lo = m_wrap.select(w_minus, self.w_lo);

        // Restore the ProbeRTT-frozen lanes.
        self.t_pbw = frozen.select(s_t_pbw, self.t_pbw);
        self.x_btl = frozen.select(s_x_btl, self.x_btl);
        self.x_max = frozen.select(s_x_max, self.x_max);
        self.x_max_prev = frozen.select(s_x_max_prev, self.x_max_prev);
        self.w_hi = frozen.select(s_w_hi, self.w_hi);
        self.w_lo = frozen.select(s_w_lo, self.w_lo);
        self.m_dwn = (frozen & s_m_dwn) | (!frozen & self.m_dwn);
        self.m_crs = (frozen & s_m_crs) | (!frozen & self.m_crs);
    }
}

/// One packed agent: four same-kind CCA state machines in lockstep.
pub(crate) enum PackedCca {
    Reno(PackedReno),
    Cubic(PackedCubic),
    BbrV1(PackedBbrV1),
    BbrV2(PackedBbrV2),
}

impl PackedCca {
    /// Transpose four same-kind scalar agents into packed state. The
    /// pack key guarantees same kinds; `hint` carries the structural
    /// agent index/count for BBRv2's period constant.
    fn from_lanes(lanes: &[&AnyCca; LANES], hint: &ScenarioHint) -> Self {
        match lanes[0] {
            AnyCca::Reno(_) => PackedCca::Reno(PackedReno {
                w: gather(lanes, |a| match a {
                    AnyCca::Reno(r) => r.w,
                    _ => unreachable!("pack mixes CCA kinds"),
                }),
            }),
            AnyCca::Cubic(_) => {
                let get = |f: fn(&bbr_fluid_core::cca::Cubic) -> f64| {
                    gather(lanes, move |a| match a {
                        AnyCca::Cubic(c) => f(c),
                        _ => unreachable!("pack mixes CCA kinds"),
                    })
                };
                PackedCca::Cubic(PackedCubic {
                    s: get(|c| c.s),
                    w_max: get(|c| c.w_max),
                    memo_w: [0; LANES],
                    memo_shrink: 0.0,
                    memo_k: F64x4::zero(),
                    memo_set: false,
                })
            }
            AnyCca::BbrV1(b0) => {
                let get = |f: fn(&bbr_fluid_core::cca::BbrV1) -> f64| {
                    gather(lanes, move |a| match a {
                        AnyCca::BbrV1(b) => f(b),
                        _ => unreachable!("pack mixes CCA kinds"),
                    })
                };
                PackedCca::BbrV1(PackedBbrV1 {
                    prt: PackedProbeRtt {
                        tau_min: get(|b| b.probe_rtt.tau_min),
                        active: gather_mask(lanes, |a| match a {
                            AnyCca::BbrV1(b) => b.probe_rtt.active,
                            _ => unreachable!("pack mixes CCA kinds"),
                        }),
                        timer: get(|b| b.probe_rtt.timer),
                    },
                    t_pbw: get(|b| b.t_pbw),
                    x_btl: get(|b| b.x_btl),
                    x_max: get(|b| b.x_max),
                    v: get(|b| b.v),
                    phase: b0.phase as f64,
                })
            }
            AnyCca::BbrV2(_) => {
                let get = |f: fn(&bbr_fluid_core::cca::BbrV2) -> f64| {
                    gather(lanes, move |a| match a {
                        AnyCca::BbrV2(b) => f(b),
                        _ => unreachable!("pack mixes CCA kinds"),
                    })
                };
                let mask = |f: fn(&bbr_fluid_core::cca::BbrV2) -> bool| {
                    gather_mask(lanes, move |a| match a {
                        AnyCca::BbrV2(b) => f(b),
                        _ => unreachable!("pack mixes CCA kinds"),
                    })
                };
                PackedCca::BbrV2(PackedBbrV2 {
                    prt: PackedProbeRtt {
                        tau_min: get(|b| b.probe_rtt.tau_min),
                        active: mask(|b| b.probe_rtt.active),
                        timer: get(|b| b.probe_rtt.timer),
                    },
                    t_pbw: get(|b| b.t_pbw),
                    x_btl: get(|b| b.x_btl),
                    x_max: get(|b| b.x_max),
                    x_max_prev: get(|b| b.x_max_prev),
                    m_dwn: mask(|b| b.m_dwn),
                    m_crs: mask(|b| b.m_crs),
                    w_hi: get(|b| b.w_hi),
                    w_lo: get(|b| b.w_lo),
                    v: get(|b| b.v),
                    // Eq. (24)'s structural 2 + i/N, reconstructed from
                    // the flow hint exactly as `BbrV2::new` stores it.
                    period_const: 2.0 + hint.agent_index as f64 / hint.n_agents.max(1) as f64,
                })
            }
        }
    }
}

/// Four pack members per lane, through the packed CCA kernels above and
/// the masked queue kernels below.
impl LaneAgent for PackedCca {
    type V = F64x4;
    /// `fluid-simd` is trace-free: its rows are tolerance-bound, and a
    /// trace would have to pick one member per lane.
    const TRACED: bool = false;

    /// Transpose each flow's four same-kind scalar agents into packed
    /// state (the pack key guarantees same kinds).
    fn agents(members: Vec<Vec<AnyCca>>, net: &Network) -> Vec<PackedCca> {
        (0..net.n_agents())
            .map(|i| {
                let lanes: [&AnyCca; LANES] = std::array::from_fn(|j| &members[j][i]);
                PackedCca::from_lanes(&lanes, &hint_for_flow(net, i))
            })
            .collect()
    }

    #[inline(always)]
    fn rate(agent: &mut PackedCca, tau: F64x4, cfg: &ModelConfig) -> F64x4 {
        match agent {
            PackedCca::Reno(a) => a.rate4(tau, cfg),
            PackedCca::Cubic(a) => a.rate4(tau, cfg),
            PackedCca::BbrV1(a) => a.rate4(tau, cfg),
            PackedCca::BbrV2(a) => a.rate4(tau, cfg),
        }
    }

    #[inline(always)]
    fn step(agent: &mut PackedCca, inp: &AgentInputs<F64x4>, cfg: &ModelConfig) {
        match agent {
            PackedCca::Reno(a) => a.step4(inp, cfg),
            PackedCca::Cubic(a) => a.step4(inp, cfg),
            PackedCca::BbrV1(a) => a.step4(inp, cfg),
            PackedCca::BbrV2(a) => a.step4(inp, cfg),
        }
    }

    fn cwnd(_: &PackedCca) -> f64 {
        unreachable!("fluid-simd lanes are never traced")
    }

    fn telemetry(_: &PackedCca, _: &mut Vec<(&'static str, f64)>) {
        unreachable!("fluid-simd lanes are never traced")
    }

    /// `queue::loss_probability` with the scalar early returns turned
    /// into masks. The `0^L`/`1^L` endpoint short-circuits are preserved
    /// *exactly* (endpoint lanes bypass the `pow4` kernel), which also
    /// keeps the pinned-full/empty-queue regimes bit-identical to scalar;
    /// only mid-fill lanes go through `pow4`.
    #[inline(always)]
    fn loss_probability(
        link: &LinkSpec,
        buffer: F64x4,
        y: F64x4,
        q: F64x4,
        cfg: &ModelConfig,
    ) -> F64x4 {
        let zero = F64x4::zero();
        let one = F64x4::splat(1.0);
        match link.qdisc {
            QdiscKind::DropTail => {
                let m_ypos = y.gt(zero);
                let fill_ratio = (q / buffer).clamp(0.0, 1.0);
                let m_f0 = fill_ratio.eq_v(zero);
                let m_f1 = fill_ratio.eq_v(one);
                let ends = m_f0 | m_f1;
                let fill = if ends.all() {
                    m_f1.select(one, zero)
                } else {
                    // Endpoint lanes feed a harmless 0.5 into the kernel
                    // and discard its output, so `pow4`'s x > 0
                    // precondition holds in every lane.
                    let safe = ends.select(F64x4::splat(0.5), fill_ratio);
                    m_f1.select(one, pow4(safe, cfg.drop_exp_l))
                };
                let gate = sigmoid4(cfg.k_rate, y - link.capacity);
                let excess = (one - F64x4::splat(link.capacity) / y).max(zero);
                let p = (gate * excess * fill).clamp(0.0, 1.0);
                // y ≤ 0 or an empty queue short-circuit to exactly 0.0;
                // the bitwise select discards whatever the masked lanes
                // computed (even NaN from the y = 0 division).
                (m_ypos & !m_f0).select(p, zero)
            }
            QdiscKind::Red => (q / buffer).clamp(0.0, 1.0),
        }
    }

    /// `queue::step_queue` lane-wise.
    #[inline(always)]
    fn step_queue(link: &LinkSpec, buffer: F64x4, q: F64x4, y: F64x4, p: F64x4, dt: f64) -> F64x4 {
        let dq = (F64x4::splat(1.0) - p) * y - link.capacity;
        (q + dq * dt).max(F64x4::zero()).min(buffer)
    }
}

// ---------------------------------------------------------------------
// The backend.
// ---------------------------------------------------------------------

/// The SIMD-packed fluid integrator as a [`SimBackend`] /
/// [`BatchSimBackend`], name `"fluid-simd"`. Groups jobs into packs of
/// up to [`LANES`] structurally identical specs, runs one pack per wave
/// on the batch engine's `F64x4` lanes, and falls back to its `f64`
/// lanes (the [`BatchedFluidBackend`] waves) for configurations outside
/// the packed fast path.
#[derive(Debug, Clone)]
pub struct SimdFluidBackend {
    cfg: ModelConfig,
}

impl SimdFluidBackend {
    /// Backend with an explicit integration configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        Self { cfg }
    }

    /// Backend with the coarse (fast) integration step, matching
    /// `FluidBackend::coarse()`.
    pub fn coarse() -> Self {
        Self::new(ModelConfig::coarse())
    }
}

impl SimBackend for SimdFluidBackend {
    /// `"fluid-simd"`, deliberately distinct from `"fluid"`: outcomes
    /// are *not* bit-identical to `FluidBackend`'s (packed
    /// transcendental kernels), so store keys must not alias.
    fn name(&self) -> &'static str {
        SIMD_BACKEND_NAME
    }

    fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
        self.run_batch(&[(spec, seed)])
            .pop()
            .expect("one job in, one outcome out")
    }

    fn as_batch(&self) -> Option<&dyn BatchSimBackend> {
        Some(self)
    }
}

impl BatchSimBackend for SimdFluidBackend {
    /// Pack structurally identical jobs and integrate each pack with
    /// packed arithmetic; packs run independently across the rayon
    /// pool. The fluid model is deterministic and ignores seeds;
    /// outcomes come back in job order.
    fn run_batch(&self, jobs: &[(&ScenarioSpec, u64)]) -> Vec<RunOutcome> {
        if !packable(&self.cfg) {
            let waves = BatchedFluidBackend::new(self.cfg.clone()).waves(jobs);
            return run_waves::<AnyCca>(&self.cfg, jobs, SIMD_BACKEND_NAME, waves);
        }
        // Greedy grouping: jobs join the open pack of their structural
        // key, packs close at LANES members; first-seen order is kept
        // so the fan-out work list mirrors the job list's locality. One
        // pack is one wave.
        let mut packs: Vec<Vec<usize>> = Vec::new();
        let mut open: HashMap<u64, usize> = HashMap::new();
        for (idx, (spec, _)) in jobs.iter().enumerate() {
            match open.entry(struct_key(spec)) {
                Entry::Occupied(e) => {
                    let pk = *e.get();
                    packs[pk].push(idx);
                    if packs[pk].len() == LANES {
                        e.remove();
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(packs.len());
                    packs.push(vec![idx]);
                }
            }
        }
        run_waves::<PackedCca>(&self.cfg, jobs, SIMD_BACKEND_NAME, packs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_fluid_core::backend::FluidBackend;
    use bbr_scenario::CcaKind;

    fn families() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
                .duration(1.0),
            ScenarioSpec::dumbbell(4, 100.0, 0.010, 1.0)
                .ccas(vec![CcaKind::Cubic])
                .duration(0.8),
            ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
                .ccas(vec![CcaKind::BbrV2])
                .duration(0.6),
            ScenarioSpec::chain(3, 100.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1])
                .duration(0.5),
        ]
    }

    /// Tolerances of `tests/backend_consistency.rs` — the packed kernels
    /// agree far more tightly in practice, but divergence through the
    /// sharp-gate feedback loop is the quantity under test, not kernel
    /// ulp error.
    fn assert_close(a: &RunOutcome, b: &RunOutcome, what: &str) {
        assert!(
            (a.utilization_percent - b.utilization_percent).abs() < 25.0,
            "{what}: utilization {} vs {}",
            a.utilization_percent,
            b.utilization_percent
        );
        assert!(
            (a.jain - b.jain).abs() < 0.35,
            "{what}: jain {} vs {}",
            a.jain,
            b.jain
        );
        assert_eq!(a.flows.len(), b.flows.len(), "{what}: flow count");
    }

    #[test]
    fn simd_agrees_with_scalar_across_families() {
        let _serial = crate::telemetry_serial();
        let specs = families();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let simd = SimdFluidBackend::coarse().run_batch(&jobs);
        let scalar = FluidBackend::coarse();
        for ((spec, _), out) in jobs.iter().zip(&simd) {
            assert_eq!(out.backend, "fluid-simd");
            let reference = scalar.run(spec, 0);
            assert_close(out, &reference, &format!("{:?}", spec.topology));
            // Much tighter in practice: per-flow throughput within 1%
            // of capacity-scale of the scalar value.
            for (f_simd, f_scal) in out.flows.iter().zip(&reference.flows) {
                assert!(
                    (f_simd.throughput_mbps - f_scal.throughput_mbps).abs()
                        < 0.01 * (f_scal.throughput_mbps.abs() + 100.0),
                    "{:?}: throughput {} vs {}",
                    spec.topology,
                    f_simd.throughput_mbps,
                    f_scal.throughput_mbps
                );
            }
        }
    }

    #[test]
    fn pack_composition_is_invisible() {
        let _serial = crate::telemetry_serial();
        // Four buffer variants of one structural shape: grouped into one
        // pack vs run one at a time (each a partial pack padded with
        // itself) — element-wise kernels make the results bitwise equal.
        let specs: Vec<ScenarioSpec> = [0.5, 1.0, 2.0, 8.0]
            .iter()
            .map(|b| {
                ScenarioSpec::dumbbell(2, 100.0, 0.010, *b)
                    .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
                    .duration(0.5)
            })
            .collect();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let backend = SimdFluidBackend::coarse();
        let packed = backend.run_batch(&jobs);
        for (spec, out) in specs.iter().zip(&packed) {
            assert_eq!(out, &backend.run(spec, 0), "buffer {:?}", spec.topology);
        }
    }

    #[test]
    fn grouping_preserves_job_order_with_interleaved_keys() {
        let _serial = crate::telemetry_serial();
        // Alternate two structural shapes so pack membership is
        // non-contiguous in job order; outcomes must still come back in
        // job order, matching per-spec individual runs bit for bit.
        let shape_a = |b: f64| {
            ScenarioSpec::dumbbell(2, 50.0, 0.010, b)
                .ccas(vec![CcaKind::BbrV1])
                .duration(0.4)
        };
        let shape_b = |b: f64| {
            ScenarioSpec::chain(3, 80.0, 0.010, b)
                .ccas(vec![CcaKind::Reno])
                .duration(0.4)
        };
        let specs = [
            shape_a(0.5),
            shape_b(0.5),
            shape_a(1.0),
            shape_b(1.0),
            shape_a(2.0),
            shape_b(2.0),
        ];
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let backend = SimdFluidBackend::coarse();
        let batch = backend.run_batch(&jobs);
        for (spec, out) in specs.iter().zip(&batch) {
            assert_eq!(out, &backend.run(spec, 0), "{:?}", spec.topology);
        }
    }

    #[test]
    fn unpackable_config_falls_back_to_batch_engine() {
        let _serial = crate::telemetry_serial();
        let cfg = ModelConfig {
            bbr2_wlo_unset: true,
            ..ModelConfig::coarse()
        };
        assert!(!packable(&cfg));
        let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV2])
            .duration(0.5);
        let simd = SimdFluidBackend::new(cfg.clone()).run(&spec, 0);
        let mut batch = BatchedFluidBackend::new(cfg).run(&spec, 0);
        assert_eq!(simd.backend, "fluid-simd");
        batch.backend = SIMD_BACKEND_NAME;
        assert_eq!(simd, batch, "fallback must be the batch engine verbatim");
    }

    #[test]
    fn packs_emit_wave_telemetry_with_occupancy() {
        let _serial = crate::telemetry_serial();
        // Three buffer variants of one structural shape: one ragged
        // pack of 3 members out of LANES = 4 slots.
        let specs: Vec<ScenarioSpec> = [0.5, 1.0, 2.0]
            .iter()
            .map(|b| {
                ScenarioSpec::dumbbell(2, 50.0, 0.010, *b)
                    .ccas(vec![CcaKind::BbrV1])
                    .duration(0.3)
            })
            .collect();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let capture = std::sync::Arc::new(bbr_telemetry::MemorySink::new());
        let without_sink = SimdFluidBackend::coarse().run_batch(&jobs);
        let with_sink = {
            let _guard = bbr_telemetry::install(capture.clone());
            SimdFluidBackend::coarse().run_batch(&jobs)
        };
        // Instrumentation is observation only: identical outcomes.
        assert_eq!(without_sink, with_sink);
        let waves: Vec<_> = capture
            .take()
            .iter()
            .filter_map(|ev| match ev {
                bbr_telemetry::Event::Wave {
                    lanes,
                    flows,
                    occupancy,
                    wall_ms,
                } => Some((*lanes, *flows, *occupancy, *wall_ms)),
                _ => None,
            })
            .collect();
        assert_eq!(waves.len(), 1, "one pack, one wave: {waves:?}");
        let (lanes, flows, occupancy, wall_ms) = waves[0];
        assert_eq!(lanes, 3);
        assert_eq!(flows, 6);
        assert_eq!(occupancy, 3.0 / LANES as f64);
        assert!(wall_ms >= 0.0);
    }

    #[test]
    fn struct_key_neutralizes_only_the_buffer_axis() {
        let base = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1]);
        let deeper = ScenarioSpec::dumbbell(2, 50.0, 0.010, 4.0).ccas(vec![CcaKind::BbrV1]);
        let faster = ScenarioSpec::dumbbell(2, 60.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1]);
        let other_cca = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0).ccas(vec![CcaKind::Reno]);
        assert_eq!(struct_key(&base), struct_key(&deeper));
        assert_ne!(struct_key(&base), struct_key(&faster));
        assert_ne!(struct_key(&base), struct_key(&other_cca));
    }

    #[test]
    fn entry_points() {
        let _serial = crate::telemetry_serial();
        let b = SimdFluidBackend::coarse();
        assert_eq!(b.name(), "fluid-simd");
        assert!(b.as_batch().is_some());
        let spec = ScenarioSpec::dumbbell(1, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::Reno])
            .duration(0.3);
        // The fluid model ignores seeds, packed or not.
        assert_eq!(b.run(&spec, 1), b.run(&spec, 999));
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn invalid_specs_are_rejected() {
        let bad = ScenarioSpec::dumbbell(0, 50.0, 0.010, 1.0);
        let _ = SimdFluidBackend::coarse().run_batch(&[(&bad, 0)]);
    }
}
