//! Property tests for the SIMD lane abstraction: every `U64x8` operation
//! must be bit-identical, lane for lane, to its scalar counterpart — the
//! foundation of determinism invariant #8 (SIMD ≡ scalar) that the
//! `ver-index` sketch kernels build on.

// Lane loops index several parallel arrays at once; a range loop is the
// clearest way to say "same lane everywhere".
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use ver_common::fxhash::mix64;
use ver_common::simd::{mix64x8, U64x8, LANES};
use ver_common::simd_multiversion;

fn lanes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), LANES..LANES + 1)
}

fn block(v: &[u64]) -> U64x8 {
    U64x8::load(v)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn mix64x8_is_lane_wise_mix64(v in lanes()) {
        let out = mix64x8(block(&v));
        for (lane, &x) in v.iter().enumerate() {
            prop_assert_eq!(out.0[lane], mix64(x), "lane {}", lane);
        }
    }

    #[test]
    fn min_is_lane_wise_unsigned_min(a in lanes(), b in lanes()) {
        let out = block(&a).min(block(&b));
        for lane in 0..LANES {
            prop_assert_eq!(out.0[lane], a[lane].min(b[lane]), "lane {}", lane);
        }
    }

    #[test]
    fn xor_and_shift_are_lane_wise(a in lanes(), b in lanes(), n in 0u32..64) {
        let x = block(&a).xor(block(&b));
        let s = block(&a).xorshift_right(n % 63 + 1);
        for lane in 0..LANES {
            prop_assert_eq!(x.0[lane], a[lane] ^ b[lane]);
            prop_assert_eq!(s.0[lane], a[lane] ^ (a[lane] >> (n % 63 + 1)));
        }
    }

    #[test]
    fn wrapping_ops_are_lane_wise(a in lanes(), k in any::<u64>()) {
        let add = block(&a).wrapping_add_splat(k);
        let mul = block(&a).wrapping_mul_splat(k);
        for lane in 0..LANES {
            prop_assert_eq!(add.0[lane], a[lane].wrapping_add(k));
            prop_assert_eq!(mul.0[lane], a[lane].wrapping_mul(k));
        }
    }

    #[test]
    fn count_eq_matches_scalar_count(a in lanes(), b in lanes(), collide in 0usize..LANES) {
        let mut b = b;
        // Force some collisions so the equal branch is actually exercised.
        b[..collide].copy_from_slice(&a[..collide]);
        let expected = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        prop_assert_eq!(block(&a).count_eq(block(&b)), expected);
    }

    #[test]
    fn multiversioned_kernel_matches_plain_body(v in prop::collection::vec(any::<u64>(), 0..600)) {
        simd_multiversion! {
            fn mix_all(xs: &mut [u64]) {
                for x in xs.iter_mut() {
                    *x = mix64(*x);
                }
            }
        }
        let mut dispatched = v.clone();
        mix_all(&mut dispatched);
        let reference: Vec<u64> = v.iter().map(|&x| mix64(x)).collect();
        prop_assert_eq!(dispatched, reference);
    }
}
