//! Portable fixed-width SIMD lanes for the sketching kernels.
//!
//! The offline index build is dominated by k-MinHash sketching: every
//! distinct value is pushed through k independent hash functions and folded
//! into k running minima. That work is data-parallel across the k seed
//! lanes, and so is scoring a candidate pair (a merge over sorted hash
//! vectors, or a count of agreeing signature positions). Finding candidate
//! pairs needs no kernel: it is LSH with one-row bands, i.e. columns sharing
//! a MinHash value at some position, which is a plain grouping by value.
//! This module provides the substrate the kernels are written on:
//!
//! * [`U64x8`] — a fixed block of eight `u64` lanes with element-wise
//!   arithmetic written as plain array loops. LLVM autovectorizes these
//!   loops for whatever vector ISA the *enclosing function* is compiled
//!   with, which is the whole trick behind [`crate::simd_multiversion!`]: the same
//!   `#[inline(always)]` kernel body is instantiated once at the build
//!   baseline and once inside an `#[target_feature(enable = "avx2")]`
//!   (or NEON) wrapper, and [`active_backend`] picks at runtime.
//! * [`mix64x8`] — the eight-lane version of the scalar hash primitive
//!   [`mix64`](crate::fxhash::mix64), **bit-identical per lane** to it.
//! * [`active_backend`] — cached runtime dispatch: x86-64 probes for
//!   AVX-512 and AVX2 via `std::arch` feature detection, aarch64 uses NEON
//!   (part of the baseline target), anything else runs the portable
//!   instantiation. CPU detection and input size are the only inputs.
//!
//! **Determinism invariant (ARCHITECTURE.md §invariant 8):** every kernel
//! built on these lanes must produce output bit-identical to its scalar
//! reference. The lane ops here only re-associate commutative reductions
//! (min, equality counts) or evaluate identical per-lane arithmetic, so the
//! invariant holds by construction; `tests/simd_properties.rs` and the
//! `ver-index` equivalence suites pin it in-process against the scalar
//! references.

use crate::fxhash::{MIX64_INC, MIX64_M1, MIX64_M2};
use std::sync::OnceLock;

/// Lane count of the fixed-width block. Eight `u64`s = one AVX-512 register,
/// two AVX2 registers, four NEON registers — wide enough to keep any of
/// those busy, small enough to stay register-resident.
pub const LANES: usize = 8;

/// A block of eight `u64` lanes.
///
/// All operations are element-wise and written as plain `0..LANES` loops so
/// the optimizer can turn them into vector instructions; none of them branch
/// on lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct U64x8(pub [u64; LANES]);

impl U64x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: u64) -> Self {
        U64x8([v; LANES])
    }

    /// Load from the first [`LANES`] elements of `s`.
    ///
    /// # Panics
    /// If `s` has fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn load(s: &[u64]) -> Self {
        let mut out = [0u64; LANES];
        out.copy_from_slice(&s[..LANES]);
        U64x8(out)
    }

    /// Store into the first [`LANES`] elements of `out`.
    ///
    /// # Panics
    /// If `out` has fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn store(self, out: &mut [u64]) {
        out[..LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise XOR.
    #[inline(always)]
    pub fn xor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o ^= r;
        }
        U64x8(out)
    }

    /// Lane-wise wrapping add of a scalar.
    #[inline(always)]
    pub fn wrapping_add_splat(self, rhs: u64) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = o.wrapping_add(rhs);
        }
        U64x8(out)
    }

    /// Lane-wise wrapping multiply by a scalar.
    #[inline(always)]
    pub fn wrapping_mul_splat(self, rhs: u64) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = o.wrapping_mul(rhs);
        }
        U64x8(out)
    }

    /// Lane-wise `x ^ (x >> shift)` — the xor-shift step of SplitMix64.
    #[inline(always)]
    pub fn xorshift_right(self, shift: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o ^= *o >> shift;
        }
        U64x8(out)
    }

    /// Lane-wise unsigned minimum (branchless select per lane).
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = if r < *o { r } else { *o };
        }
        U64x8(out)
    }

    /// Number of lanes equal between `self` and `rhs`.
    #[inline(always)]
    pub fn count_eq(self, rhs: Self) -> usize {
        let mut n = 0usize;
        for (a, b) in self.0.iter().zip(rhs.0) {
            n += usize::from(*a == b);
        }
        n
    }
}

/// Eight-lane SplitMix64 finaliser — per lane bit-identical to
/// [`mix64`](crate::fxhash::mix64).
#[inline(always)]
pub fn mix64x8(z: U64x8) -> U64x8 {
    z.wrapping_add_splat(MIX64_INC)
        .xorshift_right(30)
        .wrapping_mul_splat(MIX64_M1)
        .xorshift_right(27)
        .wrapping_mul_splat(MIX64_M2)
        .xorshift_right(31)
}

/// The kernel implementation selected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Blocked lane kernels compiled at the build's baseline target
    /// (x86-64 without AVX2, or any other architecture).
    Portable,
    /// Blocked lane kernels recompiled with AVX2 enabled (x86-64 with
    /// runtime-detected AVX2 support).
    Avx2,
    /// Blocked lane kernels recompiled with AVX-512 (F + DQ: native 64-bit
    /// vector multiply and unsigned min — one [`U64x8`] per register).
    Avx512,
    /// Blocked lane kernels on NEON (aarch64; NEON is part of the baseline
    /// target, the explicit wrapper just names the fact).
    Neon,
}

impl SimdBackend {
    /// Stable lower-case name for logs and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
            SimdBackend::Neon => "neon",
        }
    }
}

fn detect_backend() -> SimdBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return SimdBackend::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdBackend::Neon;
        }
    }
    SimdBackend::Portable
}

/// The backend every dispatching kernel uses, detected once per process.
pub fn active_backend() -> SimdBackend {
    static BACKEND: OnceLock<SimdBackend> = OnceLock::new();
    *BACKEND.get_or_init(detect_backend)
}

/// Define a runtime-multiversioned kernel.
///
/// Expands to a function whose body is compiled twice: once at the build's
/// baseline target features, and once inside an
/// `#[target_feature(enable = "avx2")]` (x86-64) or
/// `#[target_feature(enable = "neon")]` (aarch64) wrapper. At each call the
/// cached [`active_backend`](crate::simd::active_backend) picks the widest
/// instantiation the CPU supports. Because both instantiations share one
/// body, they cannot diverge — the SIMD ≡ scalar determinism invariant only
/// rests on the body itself being order-insensitive.
///
/// The body must not capture its environment (it becomes a nested `fn`);
/// pass everything through arguments.
#[macro_export]
macro_rules! simd_multiversion {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( $($arg:ident : $ty:ty),* $(,)? ) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn vector($($arg: $ty),*) $(-> $ret)? { body($($arg),*) }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx512dq")]
            unsafe fn vector512($($arg: $ty),*) $(-> $ret)? { body($($arg),*) }

            #[cfg(target_arch = "aarch64")]
            #[target_feature(enable = "neon")]
            unsafe fn vector($($arg: $ty),*) $(-> $ret)? { body($($arg),*) }

            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            {
                use $crate::simd::SimdBackend;
                // SAFETY (both arms): a vector backend is only ever
                // selected after `std::arch` runtime detection confirmed
                // the features are present on this CPU.
                match $crate::simd::active_backend() {
                    #[cfg(target_arch = "x86_64")]
                    SimdBackend::Avx512 => return unsafe { vector512($($arg),*) },
                    SimdBackend::Avx2 | SimdBackend::Neon => {
                        return unsafe { vector($($arg),*) }
                    }
                    _ => {}
                }
            }
            body($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::mix64;

    #[test]
    fn mix64x8_matches_scalar_per_lane() {
        let input = [0u64, 1, 42, u64::MAX, 0xdead_beef, 7, 1 << 63, 12345];
        let out = mix64x8(U64x8(input));
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(out.0[i], mix64(v), "lane {i}");
        }
    }

    #[test]
    fn min_is_unsigned_and_branch_free_semantics() {
        let a = U64x8([0, u64::MAX, 5, 5, 1 << 63, 0, 3, 9]);
        let b = U64x8([1, 0, 5, 4, 1, u64::MAX, 4, 8]);
        let m = a.min(b);
        for i in 0..LANES {
            assert_eq!(m.0[i], a.0[i].min(b.0[i]), "lane {i}");
        }
    }

    #[test]
    fn count_eq_counts_lanes() {
        let a = U64x8([1, 2, 3, 4, 5, 6, 7, 8]);
        let b = U64x8([1, 0, 3, 0, 5, 0, 7, 0]);
        assert_eq!(a.count_eq(b), 4);
        assert_eq!(a.count_eq(a), LANES);
    }

    #[test]
    fn load_store_round_trip() {
        let src: Vec<u64> = (10..18).collect();
        let v = U64x8::load(&src);
        let mut dst = vec![0u64; LANES];
        v.store(&mut dst);
        assert_eq!(src, dst);
        assert_eq!(U64x8::splat(7).0, [7; LANES]);
    }

    #[test]
    fn backend_is_cached_and_consistent() {
        let b = active_backend();
        assert_eq!(b, active_backend(), "must be stable per process");
        assert!(!b.name().is_empty());
    }

    #[test]
    fn multiversion_macro_runs_body() {
        simd_multiversion! {
            fn double_all(xs: &mut [u64]) {
                for x in xs.iter_mut() {
                    *x = x.wrapping_mul(2);
                }
            }
        }
        let mut v: Vec<u64> = (0..100).collect();
        double_all(&mut v);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 2);
        }
    }
}
