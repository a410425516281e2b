//! Hand-rolled packed-f64 lanes for the vectorized batch integrator.
//!
//! [`F64x4`] is an aligned newtype over `[f64; 4]` whose arithmetic is
//! written as four independent scalar IEEE-754 operations per call —
//! simple enough that LLVM autovectorizes every op into packed SIMD
//! instructions, with **no** new dependencies (consistent with the
//! offline-shims discipline: the container has no crates.io access, so
//! `wide`/`packed_simd`-style crates are not an option).
//!
//! # Bit-exactness contract
//!
//! Every primitive lane op (`+ - * /`, [`F64x4::min`], [`F64x4::max`],
//! [`F64x4::clamp`], [`F64x4::abs`], [`F64x4::mul_add`], comparisons,
//! [`M64x4::select`]) produces, in each lane, the *bit-identical* result
//! of the corresponding scalar `f64` operation on that lane's inputs.
//! This holds by construction (each lane literally *is* the scalar
//! expression) and is pinned by the exhaustive bit-pattern tests below
//! (denormals, ±0, NaN, infinities), so a future rewrite against
//! intrinsics inherits a contract it must keep. Note in particular that
//! [`F64x4::mul_add`] is deliberately **unfused** — `a*b + c` as two
//! rounded operations — because the scalar fluid model never uses FMA
//! and Rust never contracts `a*b + c` into one.
//!
//! The transcendental kernels ([`exp4`], [`sigmoid4`], [`pow4`],
//! [`exp2_4`], [`log2_4`], [`cbrt4`]) are *deterministic and
//! element-wise* but **not** bit-identical to libm — which is exactly
//! why the vectorized integrator ships under its own `"fluid-simd"`
//! backend name instead of sharing `"fluid"` (see
//! `docs/ARCHITECTURE.md`, "Vectorized lanes").

// The element-wise kernels deliberately index all four lanes by
// position across several arrays in lockstep — that shape is what LLVM
// recognizes and turns into packed instructions, so the
// `needless_range_loop` rewrite (iterator zips) is rejected here. The
// polynomial coefficients keep their full published precision even
// where the nearest f64 needs fewer digits; rounding them by hand
// risks changing the pinned kernel bits.
#![allow(clippy::needless_range_loop, clippy::excessive_precision)]

use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Neg, Not, Sub};

/// Number of lanes in a pack.
pub const LANES: usize = 4;

/// Four packed `f64` lanes, 32-byte aligned so packed loads/stores hit
/// aligned AVX slots.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; LANES]);

/// Four packed lane masks (all-ones = true, all-zeros = false per
/// lane), the result type of [`F64x4`] comparisons and the selector of
/// [`M64x4::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct M64x4(pub [u64; LANES]);

impl F64x4 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Lane-wise **unfused** multiply-add: `self * a + b` as two rounded
    /// IEEE operations — bit-identical to the scalar expression
    /// `x * a + b`, *not* to `f64::mul_add` (the fluid model never
    /// fuses, so neither do we).
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = self.0[i] * a.0[i] + b.0[i];
        }
        Self(r)
    }

    /// Lane-wise `self >= o`.
    #[inline(always)]
    pub fn ge(self, o: Self) -> M64x4 {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = if self.0[i] >= o.0[i] { u64::MAX } else { 0 };
        }
        M64x4(r)
    }

    /// Lane-wise `self < o`.
    #[inline(always)]
    pub fn lt(self, o: Self) -> M64x4 {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = if self.0[i] < o.0[i] { u64::MAX } else { 0 };
        }
        M64x4(r)
    }

    /// Lane-wise `self <= o`.
    #[inline(always)]
    pub fn le(self, o: Self) -> M64x4 {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = if self.0[i] <= o.0[i] { u64::MAX } else { 0 };
        }
        M64x4(r)
    }

    /// Lane-wise `self == o` (IEEE equality: `-0.0 == 0.0`, NaN ≠ NaN).
    #[inline(always)]
    pub fn eq_v(self, o: Self) -> M64x4 {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = if self.0[i] == o.0[i] { u64::MAX } else { 0 };
        }
        M64x4(r)
    }

    /// Raw bit pattern per lane.
    #[inline(always)]
    pub fn to_bits(self) -> [u64; LANES] {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = self.0[i].to_bits();
        }
        r
    }

    /// Pack from raw bit patterns.
    #[inline(always)]
    pub fn from_bits(b: [u64; LANES]) -> Self {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = f64::from_bits(b[i]);
        }
        Self(r)
    }
}

macro_rules! lane_binop {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $fn(self, o: F64x4) -> F64x4 {
                let mut r = [0.0; LANES];
                for i in 0..LANES {
                    r[i] = self.0[i] $op o.0[i];
                }
                F64x4(r)
            }
        }
        impl $trait<f64> for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $fn(self, o: f64) -> F64x4 {
                self $op F64x4::splat(o)
            }
        }
    };
}
lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);
lane_binop!(Div, div, /);

impl Neg for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn neg(self) -> F64x4 {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = -self.0[i];
        }
        F64x4(r)
    }
}

impl M64x4 {
    /// All lanes false.
    #[inline(always)]
    pub fn none() -> Self {
        Self([0; LANES])
    }

    /// All lanes true.
    #[inline(always)]
    pub fn every() -> Self {
        Self([u64::MAX; LANES])
    }

    /// Is lane `i` true?
    #[inline(always)]
    pub fn lane(&self, i: usize) -> bool {
        self.0[i] != 0
    }

    /// Any lane true?
    #[inline(always)]
    pub fn any(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) != 0
    }

    /// Every lane true?
    #[inline(always)]
    pub fn all(self) -> bool {
        (self.0[0] & self.0[1] & self.0[2] & self.0[3]) == u64::MAX
    }

    /// Lane-wise blend: `a` where the mask is true, `b` elsewhere.
    ///
    /// Pure bitwise selection — NaN or infinity in a *discarded* lane of
    /// either operand never contaminates the result, which is what lets
    /// the integrator compute both sides of a branch unconditionally.
    #[inline(always)]
    pub fn select(self, a: F64x4, b: F64x4) -> F64x4 {
        let (ab, bb) = (a.to_bits(), b.to_bits());
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = (ab[i] & self.0[i]) | (bb[i] & !self.0[i]);
        }
        F64x4::from_bits(r)
    }
}

macro_rules! mask_binop {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl $trait for M64x4 {
            type Output = M64x4;
            #[inline(always)]
            fn $fn(self, o: M64x4) -> M64x4 {
                let mut r = [0u64; LANES];
                for i in 0..LANES {
                    r[i] = self.0[i] $op o.0[i];
                }
                M64x4(r)
            }
        }
    };
}
mask_binop!(BitAnd, bitand, &);
mask_binop!(BitOr, bitor, |);
mask_binop!(BitXor, bitxor, ^);

impl Not for M64x4 {
    type Output = M64x4;
    #[inline(always)]
    fn not(self) -> M64x4 {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = !self.0[i];
        }
        M64x4(r)
    }
}

/// A value of [`Lanes::WIDTH`] independent `f64` lanes: `f64` itself
/// (one lane) or [`F64x4`] (four). The fluid step stages, agent inputs
/// and metrics accumulator are written once against this trait. Each
/// method is the scalar op applied per lane, so for `f64` it *is* the
/// scalar op and for `F64x4` the bit-exactness contract above carries
/// every stage's bits from one lane type to the other.
pub trait Lanes:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    /// Number of lanes.
    const WIDTH: usize;
    /// Per-lane truth value of a comparison.
    type Mask: Copy + BitOr<Output = Self::Mask>;
    /// Every lane set to `v`.
    fn splat(v: f64) -> Self;
    /// Lane `j` set to `f(j)`.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
    /// Lane `j`'s value.
    fn lane(self, j: usize) -> f64;
    /// Lane-wise `f64::min`.
    fn min(self, o: Self) -> Self;
    /// Lane-wise `f64::max`.
    fn max(self, o: Self) -> Self;
    /// Lane-wise `f64::clamp`.
    fn clamp(self, lo: f64, hi: f64) -> Self;
    /// Lane-wise `f64::abs`.
    fn abs(self) -> Self;
    /// Lane-wise `self > o`.
    fn gt(self, o: Self) -> Self::Mask;
    /// `a` in the lanes where `m` holds, `b` elsewhere.
    fn select(m: Self::Mask, a: Self, b: Self) -> Self;
}

impl Lanes for f64 {
    const WIDTH: usize = 1;
    type Mask = bool;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }
    #[inline(always)]
    fn lane(self, _: usize) -> f64 {
        self
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        f64::min(self, o)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        f64::max(self, o)
    }
    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        f64::clamp(self, lo, hi)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn gt(self, o: Self) -> bool {
        self > o
    }
    #[inline(always)]
    fn select(m: bool, a: Self, b: Self) -> Self {
        if m {
            a
        } else {
            b
        }
    }
}

impl Lanes for F64x4 {
    const WIDTH: usize = LANES;
    type Mask = M64x4;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Self(std::array::from_fn(f))
    }

    #[inline(always)]
    fn lane(self, j: usize) -> f64 {
        self.0[j]
    }

    /// Lane-wise `f64::min` (same NaN/zero semantics as the scalar
    /// method: returns the other operand if one is NaN).
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = self.0[i].min(o.0[i]);
        }
        Self(r)
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = self.0[i].max(o.0[i]);
        }
        Self(r)
    }

    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = self.0[i].clamp(lo, hi);
        }
        Self(r)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        let mut r = [0.0; LANES];
        for i in 0..LANES {
            r[i] = self.0[i].abs();
        }
        Self(r)
    }

    #[inline(always)]
    fn gt(self, o: Self) -> M64x4 {
        let mut r = [0u64; LANES];
        for i in 0..LANES {
            r[i] = if self.0[i] > o.0[i] { u64::MAX } else { 0 };
        }
        M64x4(r)
    }

    #[inline(always)]
    fn select(m: M64x4, a: Self, b: Self) -> Self {
        m.select(a, b)
    }
}

// ---------------------------------------------------------------------
// Transcendental kernels: deterministic, element-wise, vectorizable.
// ---------------------------------------------------------------------

const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
const LOG2_E: f64 = std::f64::consts::LOG2_E;
const LN2: f64 = std::f64::consts::LN_2;

/// Degree-13 Taylor polynomial of `e^r` for `|r| ≤ ln(2)/2` (Horner).
#[inline(always)]
fn exp_poly(r: F64x4) -> F64x4 {
    // 1/k! for k = 13 .. 0.
    const C: [f64; 14] = [
        1.0 / 6_227_020_800.0,
        1.0 / 479_001_600.0,
        1.0 / 39_916_800.0,
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
        1.0,
        1.0,
    ];
    let mut p = F64x4::splat(C[0]);
    for &c in &C[1..] {
        p = p.mul_add(r, F64x4::splat(c));
    }
    p
}

/// Scale `v` by `2^n` with graceful over/underflow, per lane. Two-step
/// exponent-bit scaling covers `n ∈ [-2044, 2046]`, which (after the
/// clamp) flushes deep underflow through denormals to zero exactly as
/// IEEE multiplication does.
#[inline(always)]
fn scale2n(v: F64x4, n: [i64; LANES]) -> F64x4 {
    let mut r = [0.0; LANES];
    for i in 0..LANES {
        let m = n[i].clamp(-2044, 2046);
        let h = m / 2;
        let s1 = f64::from_bits(((h + 1023) as u64) << 52);
        let s2 = f64::from_bits(((m - h + 1023) as u64) << 52);
        r[i] = v.0[i] * s1 * s2;
    }
    F64x4(r)
}

/// Lane-wise `e^x` for `|x| ≲ 700` (Cody–Waite reduction + degree-13
/// Taylor). Relative error ≲ 2 ulp across the fluid model's operating
/// range; deterministic on input bits.
#[inline(always)]
pub fn exp4(x: F64x4) -> F64x4 {
    let mut n = [0i64; LANES];
    let mut nf = [0.0; LANES];
    for i in 0..LANES {
        let k = (x.0[i] * LOG2_E).round();
        n[i] = k as i64;
        nf[i] = k;
    }
    let nf = F64x4(nf);
    let r = x - nf * LN2_HI - nf * LN2_LO;
    scale2n(exp_poly(r), n)
}

/// Lane-wise sharp sigmoid `σ(v) = 1/(1 + e^{-k·v})` with the scalar
/// model's exact ±40 saturation (`math::sigmoid`): saturated lanes
/// return exactly `1.0`/`0.0`, so in the (common) regime where every
/// lane is saturated the result is bit-identical to the scalar gate —
/// and the polynomial is skipped entirely.
#[inline(always)]
pub fn sigmoid4(k: f64, v: F64x4) -> F64x4 {
    let a = v * k;
    let hi = a.gt(F64x4::splat(40.0));
    let lo = a.lt(F64x4::splat(-40.0));
    let sat = hi | lo;
    if sat.all() {
        return hi.select(F64x4::splat(1.0), F64x4::zero());
    }
    // Clamp the exp argument so saturated lanes (whose core value is
    // discarded by the select) cannot overflow the kernel's range.
    let core = F64x4::splat(1.0) / (exp4((-a).clamp(-45.0, 45.0)) + 1.0);
    hi.select(F64x4::splat(1.0), lo.select(F64x4::zero(), core))
}

/// Lane-wise rectangular pulse `σ(k,(t−a))·σ(k,(b−t))` — the packed
/// counterpart of `math::pulse`.
#[inline(always)]
pub fn pulse4(k: f64, t: F64x4, a: F64x4, b: F64x4) -> F64x4 {
    sigmoid4(k, t - a) * sigmoid4(k, b - t)
}

/// Lane-wise `log2(x)` for finite `x > 0` (denormals included):
/// exponent extraction plus the `atanh`-series of the normalized
/// mantissa. Relative error ≲ 1e-14.
#[inline(always)]
pub fn log2_4(x: F64x4) -> F64x4 {
    const SQRT2: f64 = std::f64::consts::SQRT_2;
    let mut e = [0.0; LANES];
    let mut m = [0.0; LANES];
    for i in 0..LANES {
        // Pre-scale denormals into the normal range so the exponent
        // field is meaningful.
        let (v, bias) = if x.0[i] < 2.2e-271 {
            (x.0[i] * f64::from_bits((1000 + 1023) << 52), -1000.0)
        } else {
            (x.0[i], 0.0)
        };
        let bits = v.to_bits();
        let mut exp = ((bits >> 52) as i64 - 1023) as f64 + bias;
        let mut man = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
        if man > SQRT2 {
            man *= 0.5;
            exp += 1.0;
        }
        e[i] = exp;
        m[i] = man;
    }
    let m = F64x4(m);
    // ln(m) = 2·atanh(s), s = (m−1)/(m+1), |s| ≤ √2−1 ≈ 0.1716.
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let mut p = F64x4::splat(1.0 / 19.0);
    for &c in &[
        1.0 / 17.0,
        1.0 / 15.0,
        1.0 / 13.0,
        1.0 / 11.0,
        1.0 / 9.0,
        1.0 / 7.0,
        1.0 / 5.0,
        1.0 / 3.0,
        1.0,
    ] {
        p = p.mul_add(s2, F64x4::splat(c));
    }
    F64x4(e) + (s * p) * (2.0 / LN2)
}

/// Lane-wise `2^y` for `|y| ≲ 2000` (underflows to zero, overflows to
/// infinity, both gracefully).
#[inline(always)]
pub fn exp2_4(y: F64x4) -> F64x4 {
    let mut n = [0i64; LANES];
    let mut nf = [0.0; LANES];
    for i in 0..LANES {
        let k = y.0[i].round();
        n[i] = k as i64;
        nf[i] = k;
    }
    let r = (y - F64x4(nf)) * LN2;
    scale2n(exp_poly(r), n)
}

/// Lane-wise `x^l` for finite `x > 0` (the queue drop-gate's
/// `fill^L`): `2^(l·log2(x))`. Relative error ≲ 1e-12 at `l = 20`.
/// Callers handle the exact `x = 0`/`x = 1` endpoints themselves, as
/// the scalar `loss_probability` does.
#[inline(always)]
pub fn pow4(x: F64x4, l: f64) -> F64x4 {
    exp2_4(log2_4(x) * l)
}

/// Lane-wise cube root for finite `x > 0`: exponent-hack seed (the
/// classic `hi/3 + B1` bit trick) plus four Newton iterations, which
/// converges to ≤ 1 ulp from the ~3.5 % seed error.
#[inline(always)]
pub fn cbrt4(x: F64x4) -> F64x4 {
    const B1: u64 = 715_094_163;
    let mut y = [0.0; LANES];
    for i in 0..LANES {
        let hi = (x.0[i].to_bits() >> 32) / 3 + B1;
        y[i] = f64::from_bits(hi << 32);
    }
    let mut y = F64x4(y);
    for _ in 0..4 {
        y = (y * 2.0 + x / (y * y)) * (1.0 / 3.0);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The special values every pinned-bit test crosses: both zeros,
    /// denormals, normal extremes, infinities, and two NaN payloads.
    const SPECIALS: [f64; 14] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        5e-324, // smallest positive denormal
        -5e-324,
        2.2e-308, // near MIN_POSITIVE (denormal boundary)
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -1.5e-311, // negative denormal mid-range
    ];

    fn bits_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// add/sub/mul/div/min/max/mul_add over every pair of special
    /// values must match the scalar op bit-for-bit in every lane.
    #[test]
    fn pinned_bits_binary_ops_on_specials() {
        for &a in &SPECIALS {
            for &b in &SPECIALS {
                let va = F64x4([a, b, a, b]);
                let vb = F64x4([b, a, b, a]);
                type BinCase = (&'static str, F64x4, fn(f64, f64) -> f64);
                let cases: [BinCase; 6] = [
                    ("add", va + vb, |x, y| x + y),
                    ("sub", va - vb, |x, y| x - y),
                    ("mul", va * vb, |x, y| x * y),
                    ("div", va / vb, |x, y| x / y),
                    ("min", va.min(vb), f64::min),
                    ("max", va.max(vb), f64::max),
                ];
                for (name, got, f) in cases {
                    for i in 0..LANES {
                        let want = f(va.0[i], vb.0[i]);
                        assert!(
                            bits_eq(got.0[i], want),
                            "{name} lane {i}: {a:e} op {b:e} → {:x} want {:x}",
                            got.0[i].to_bits(),
                            want.to_bits()
                        );
                    }
                }
                // Unfused mul_add: bit-identical to a*b + c, never FMA.
                for &c in &[0.0, 1.0, -3.5, f64::MAX, 5e-324] {
                    let got = va.mul_add(vb, F64x4::splat(c));
                    for i in 0..LANES {
                        let want = va.0[i] * vb.0[i] + c;
                        assert!(
                            bits_eq(got.0[i], want),
                            "mul_add lane {i}: {a:e}*{b:e}+{c:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pinned_bits_unary_ops_on_specials() {
        for &a in &SPECIALS {
            let v = F64x4::splat(a);
            assert!(bits_eq((-v).0[0], -a));
            assert!(bits_eq(v.abs().0[0], a.abs()));
            for (lo, hi) in [(0.0, 1.0), (-1.0, 1e300)] {
                assert!(
                    bits_eq(v.clamp(lo, hi).0[0], a.clamp(lo, hi)),
                    "clamp({a:e})"
                );
            }
        }
    }

    /// Comparisons agree with scalar comparisons (NaN never compares
    /// true except `!=`), and `select` is a pure bitwise blend — it
    /// preserves NaN payloads and signed zeros of the chosen side.
    #[test]
    fn pinned_bits_compare_and_select_on_specials() {
        for &a in &SPECIALS {
            for &b in &SPECIALS {
                let va = F64x4::splat(a);
                let vb = F64x4::splat(b);
                assert_eq!(va.gt(vb).lane(0), a > b, "gt {a:e} {b:e}");
                assert_eq!(va.ge(vb).lane(0), a >= b);
                assert_eq!(va.lt(vb).lane(0), a < b);
                assert_eq!(va.le(vb).lane(0), a <= b);
                assert_eq!(va.eq_v(vb).lane(0), a == b);
                let m = M64x4([u64::MAX, 0, u64::MAX, 0]);
                let sel = m.select(va, vb);
                assert!(bits_eq(sel.0[0], a) && bits_eq(sel.0[1], b));
                assert!(bits_eq(sel.0[2], a) && bits_eq(sel.0[3], b));
            }
        }
    }

    #[test]
    fn mask_logic() {
        let m = M64x4([u64::MAX, 0, u64::MAX, 0]);
        let n = M64x4([u64::MAX, u64::MAX, 0, 0]);
        assert_eq!((m & n).0, [u64::MAX, 0, 0, 0]);
        assert_eq!((m | n).0, [u64::MAX, u64::MAX, u64::MAX, 0]);
        assert_eq!((m ^ n).0, [0, u64::MAX, u64::MAX, 0]);
        assert_eq!((!m).0, [0, u64::MAX, 0, u64::MAX]);
        assert!(m.any() && !m.all());
        assert!(M64x4::every().all() && !M64x4::none().any());
        assert!(m.lane(0) && !m.lane(1));
    }

    fn rel_err(got: f64, want: f64) -> f64 {
        if want == 0.0 {
            got.abs()
        } else {
            ((got - want) / want).abs()
        }
    }

    #[test]
    fn exp4_accuracy() {
        let mut x = -49.5;
        while x < 49.5 {
            let got = exp4(F64x4::splat(x)).0[0];
            assert!(
                rel_err(got, x.exp()) < 1e-14,
                "exp({x}) = {got} want {}",
                x.exp()
            );
            x += 0.137;
        }
        assert_eq!(exp4(F64x4::zero()).0[0], 1.0);
    }

    #[test]
    fn exp2_and_log2_accuracy_and_extremes() {
        let mut y = -300.0;
        while y < 300.0 {
            assert!(
                rel_err(exp2_4(F64x4::splat(y)).0[0], y.exp2()) < 1e-13,
                "exp2({y})"
            );
            y += 7.31;
        }
        // Deep underflow flushes to zero, like scalar exp2.
        assert_eq!(exp2_4(F64x4::splat(-1500.0)).0[0], 0.0);
        for x in [5e-324, 1e-300, 1e-17, 0.3, 0.999999, 1.0, 7.25, 1e280] {
            assert!(
                rel_err(log2_4(F64x4::splat(x)).0[0], x.log2()) < 1e-13,
                "log2({x:e}) = {} want {}",
                log2_4(F64x4::splat(x)).0[0],
                x.log2()
            );
        }
        assert_eq!(log2_4(F64x4::splat(1.0)).0[0], 0.0);
    }

    #[test]
    fn pow4_matches_powf_within_tolerance() {
        // The queue gate's regime: fill ∈ (0, 1), L = drop_exp_l (20).
        for l in [2.0, 7.5, 20.0, 40.0] {
            let mut x = 1e-6;
            while x < 1.0 {
                let got = pow4(F64x4::splat(x), l).0[0];
                assert!(
                    rel_err(got, x.powf(l)) < 1e-11,
                    "{x}^{l} = {got} want {}",
                    x.powf(l)
                );
                x *= 1.7;
            }
        }
        // Denormal input underflows to zero without poisoning the lane.
        assert_eq!(pow4(F64x4::splat(5e-324), 20.0).0[0], 0.0);
    }

    #[test]
    fn cbrt4_matches_cbrt_within_tolerance() {
        // The CUBIC k-offset regime: w_max·shrink/C ≥ 0.75.
        let mut x = 0.75;
        while x < 1e9 {
            let got = cbrt4(F64x4::splat(x)).0[0];
            assert!(
                rel_err(got, x.cbrt()) < 1e-15,
                "cbrt({x}) = {got} want {}",
                x.cbrt()
            );
            x *= 1.83;
        }
    }

    #[test]
    fn sigmoid4_matches_scalar_saturation_exactly() {
        use crate::math::sigmoid;
        for k in [50.0, 5e3, 5e4] {
            for v in [-10.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 10.0, 1e6, -1e6] {
                let got = sigmoid4(k, F64x4::splat(v)).0[0];
                let want = sigmoid(k, v);
                if (k * v).abs() > 40.0 {
                    // Saturated: bit-identical to the scalar gate.
                    assert!(bits_eq(got, want), "sat sigmoid({k},{v})");
                } else {
                    assert!(rel_err(got, want) < 1e-13, "sigmoid({k},{v})");
                }
            }
        }
        // Mixed saturated/unsaturated lanes: saturated lanes stay exact.
        let mixed = sigmoid4(50.0, F64x4([10.0, 0.001, -10.0, 0.5]));
        assert_eq!(mixed.0[0], 1.0);
        assert_eq!(mixed.0[2], 0.0);
        assert!(rel_err(mixed.0[1], sigmoid(50.0, 0.001)) < 1e-13);
    }

    #[test]
    fn pulse4_matches_scalar_pulse() {
        use crate::math::pulse;
        for t in [0.0, 0.1, 0.2499, 0.25, 0.3, 0.5] {
            let got = pulse4(5e3, F64x4::splat(t), F64x4::splat(0.1), F64x4::splat(0.3)).0[0];
            assert!(rel_err(got, pulse(5e3, t, 0.1, 0.3)) < 1e-12, "pulse({t})");
        }
    }
}
