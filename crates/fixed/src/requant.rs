//! Shift-based requantization of raw fixed-point integers.
//!
//! A true integer backend (the `qcn-intinfer` engine) holds tensors as raw
//! two's-complement integers at some fractional precision and reduces
//! wordlength with shifts instead of float rounding. This module maps each
//! [`RoundingScheme`] onto pure integer shift arithmetic:
//!
//! * `shift = in_frac − out_frac ≤ 0` — the value widens; every input is
//!   exactly representable, so all schemes produce `raw << −shift`.
//! * `shift > 0` — the low `shift` bits are the discarded remainder
//!   `rem ∈ [0, 2^shift)`; the schemes differ only in when they add one to
//!   the arithmetic-shift floor:
//!   TRN never, RTN when `rem ≥ 2^(shift−1)`, RTNE above the half-way point
//!   (and *at* it only when the floor is odd), SR when the uniform draw `u`
//!   falls below `rem / 2^shift`.
//!
//! The result then saturates into the output format's raw range, exactly
//! like [`RoundingScheme::round_raw`]'s final clamp.
//!
//! # Equivalence with the fake-quantization path
//!
//! [`requant_raw`] is bit-identical to rounding the *value*
//! `raw · 2^−in_frac` with [`RoundingScheme::round_raw`] whenever that value
//! is exactly representable as an `f32` (at most 24 significant bits — the
//! condition under which the fake-quantized f32 reference itself is exact).
//! The tests below verify this across all schemes, exhaustively for narrow
//! wordlengths. For stochastic rounding the probability `rem / 2^shift` is
//! computed in `f64` (exact for `shift ≤ 52`), so the same draw `u` makes
//! the same decision in both paths.

use crate::{QFormat, RoundingScheme};

/// Requantizes the raw value `raw` held at `in_frac` fractional bits onto
/// the grid and range of `out`, returning the output's raw representation.
///
/// `u` is the uniform draw in `[0, 1)` deciding the stochastic rounding
/// direction; the deterministic schemes ignore it. All intermediate
/// arithmetic widens to `i128`, so no `raw`/`in_frac` combination in the
/// `i64` domain can overflow before the final saturation.
#[inline]
pub fn requant_raw(scheme: RoundingScheme, raw: i64, in_frac: u8, out: QFormat, u: f64) -> i64 {
    let shift = in_frac as i32 - out.frac_bits() as i32;
    let rounded: i128 = if shift <= 0 {
        (raw as i128) << (-shift) as u32
    } else {
        let shift = shift as u32;
        let floor = (raw as i128) >> shift; // arithmetic shift = floor toward −∞
        let rem = (raw as i128) - (floor << shift); // 0 ≤ rem < 2^shift
        let bump: i128 = match scheme {
            RoundingScheme::Truncation => 0,
            RoundingScheme::RoundToNearest => i128::from(rem >= (1i128 << (shift - 1))),
            RoundingScheme::RoundToNearestEven => {
                let half = 1i128 << (shift - 1);
                if rem > half {
                    1
                } else if rem == half {
                    // Exact half-way rounds to the even neighbour.
                    floor & 1
                } else {
                    0
                }
            }
            RoundingScheme::Stochastic => {
                // rem · 2^−shift: the multiply by a power of two is exact,
                // and rem is exact in f64 for shift ≤ 52.
                let frac = rem as f64 * (-(shift as f64)).exp2();
                i128::from(u < frac)
            }
        };
        floor + bump
    };
    rounded.clamp(out.min_raw() as i128, out.max_raw() as i128) as i64
}

/// How one slice requantization runs, decided once from the shift.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `shift = −s ≤ 0` with `s ≤ 62`: multiply by `2^s` in `i64`; an
    /// overflowing product lies beyond any output range, so it saturates.
    Widen { mul: i64 },
    /// `1 ≤ shift ≤ 62`: the floor, remainder and bump all fit `i64`.
    Narrow {
        shift: u32,
        mask: i64,
        half: i64,
        /// `2^−shift`, exact (a power of two).
        scale: f64,
    },
    /// Any other shift: per-element [`requant_raw`].
    Fallback,
}

/// [`requant_raw`] with its per-slice constants hoisted: the shift, the
/// exact `2^−shift` scale, the clamp range and the remainder mask are
/// computed once, and the element step runs in `i64` wherever the shift
/// allows. It makes the same decision as [`requant_raw`] on the same
/// integers, so it returns the same bits.
#[derive(Debug, Clone, Copy)]
struct SliceRequant {
    scheme: RoundingScheme,
    in_frac: u8,
    out: QFormat,
    lo: i64,
    hi: i64,
    path: Path,
}

impl SliceRequant {
    fn new(scheme: RoundingScheme, in_frac: u8, out: QFormat) -> Self {
        let shift = in_frac as i32 - out.frac_bits() as i32;
        let path = match shift {
            -62..=0 => Path::Widen {
                mul: 1i64 << (-shift) as u32,
            },
            1..=62 => Path::Narrow {
                shift: shift as u32,
                mask: (1i64 << shift) - 1,
                half: 1i64 << (shift - 1),
                scale: (-(shift as f64)).exp2(),
            },
            _ => Path::Fallback,
        };
        SliceRequant {
            scheme,
            in_frac,
            out,
            lo: out.min_raw(),
            hi: out.max_raw(),
            path,
        }
    }

    #[inline(always)]
    fn apply(&self, raw: i64, u: f64) -> i64 {
        match self.path {
            Path::Widen { mul } => match raw.checked_mul(mul) {
                Some(v) => v.clamp(self.lo, self.hi),
                None if raw < 0 => self.lo,
                None => self.hi,
            },
            Path::Narrow {
                shift,
                mask,
                half,
                scale,
            } => {
                let floor = raw >> shift;
                let rem = raw & mask; // = raw − (floor << shift) ∈ [0, 2^shift)
                let bump = match self.scheme {
                    RoundingScheme::Truncation => false,
                    RoundingScheme::RoundToNearest => rem >= half,
                    RoundingScheme::RoundToNearestEven => {
                        rem > half || (rem == half && floor & 1 == 1)
                    }
                    RoundingScheme::Stochastic => u < rem as f64 * scale,
                };
                (floor + i64::from(bump)).clamp(self.lo, self.hi)
            }
            Path::Fallback => requant_raw(self.scheme, raw, self.in_frac, self.out, u),
        }
    }
}

/// Requantizes a slice of raw values in place with caller-supplied
/// stochastic draws: `draw(i)` must return the uniform in `[0, 1)` for
/// element `i`. Only [`RoundingScheme::Stochastic`] calls `draw` — exactly
/// the draw discipline of [`RoundingScheme::round_slice_with`], so a raw
/// integer pass consumes the same random stream as the f32 reference it
/// mirrors (one draw per element, in slice order, even when `shift ≤ 0`
/// makes the rounding an exact widening).
///
/// Bit-identical to calling [`requant_raw`] per element; the per-slice
/// constants are computed once instead of per element.
pub fn requant_slice_with(
    scheme: RoundingScheme,
    values: &mut [i64],
    in_frac: u8,
    out: QFormat,
    mut draw: impl FnMut(usize) -> f64,
) {
    let rq = SliceRequant::new(scheme, in_frac, out);
    match scheme {
        RoundingScheme::Stochastic => {
            for (i, v) in values.iter_mut().enumerate() {
                *v = rq.apply(*v, draw(i));
            }
        }
        _ => {
            for v in values.iter_mut() {
                *v = rq.apply(*v, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sr_uniform;

    /// Rounds the dyadic value `raw · 2^−in_frac` through the f32
    /// fake-quantization reference and returns the resulting raw grid index.
    fn reference(scheme: RoundingScheme, raw: i64, in_frac: u8, out: QFormat, u: f64) -> i64 {
        let value = raw as f64 * (-(in_frac as f64)).exp2();
        let rounded = scheme.round_raw(value as f32, out, u);
        let scaled = rounded as f64 / out.precision() as f64;
        assert_eq!(scaled, scaled.trunc(), "reference output off-grid");
        scaled as i64
    }

    #[test]
    fn matches_round_raw_exhaustively_on_narrow_formats() {
        // Every 12-bit input value, three output widths, all schemes, a
        // spread of stochastic draws: bit-identical to the f32 path.
        let in_frac = 11u8; // Q1.11, values in [−1, 1)
        for out_frac in [2u8, 5, 11] {
            let out = QFormat::with_frac(out_frac);
            for scheme in RoundingScheme::EXTENDED {
                for raw in -(1i64 << 11)..(1i64 << 11) {
                    for u in [0.0, 0.249, 0.5, 0.751, 0.999] {
                        let got = requant_raw(scheme, raw, in_frac, out, u);
                        let want = reference(scheme, raw, in_frac, out, u);
                        assert_eq!(got, want, "{scheme} raw={raw} out={out} u={u}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_round_raw_on_wide_accumulators() {
        // Accumulator-style inputs: 20 fractional bits reduced to 5, values
        // beyond the output range (clamping) — still f32-exact (≤ 24
        // significant bits).
        let in_frac = 20u8;
        let out = QFormat::with_frac(5);
        for scheme in RoundingScheme::EXTENDED {
            for raw in [
                0i64,
                1,
                -1,
                (1 << 15) - 1,
                1 << 15,
                (1 << 15) + 1,
                -(1 << 15),
                3_000_000,
                -3_000_000,
                (1 << 23) - 1,
                -(1 << 23),
            ] {
                for u in [0.0, 0.4, 0.6] {
                    let got = requant_raw(scheme, raw, in_frac, out, u);
                    let want = reference(scheme, raw, in_frac, out, u);
                    assert_eq!(got, want, "{scheme} raw={raw} u={u}");
                }
            }
        }
    }

    #[test]
    fn widening_is_exact_for_all_schemes() {
        let out = QFormat::with_frac(9);
        for scheme in RoundingScheme::EXTENDED {
            for raw in -8i64..8 {
                assert_eq!(requant_raw(scheme, raw, 3, out, 0.0), raw << 6);
            }
        }
    }

    #[test]
    fn saturates_at_output_range() {
        let out = QFormat::with_frac(4);
        // +2.0 and −3.0 at 8 fractional bits, reduced to Q1.4.
        assert_eq!(
            requant_raw(RoundingScheme::Truncation, 512, 8, out, 0.0),
            out.max_raw()
        );
        assert_eq!(
            requant_raw(RoundingScheme::RoundToNearest, -768, 8, out, 0.0),
            out.min_raw()
        );
        // Widening a large raw far past the output range must not overflow.
        let wide_in = QFormat::new(40, 2);
        assert_eq!(
            requant_raw(RoundingScheme::Truncation, wide_in.max_raw(), 2, out, 0.0),
            out.max_raw()
        );
    }

    #[test]
    fn negative_values_floor_toward_negative_infinity() {
        let out = QFormat::with_frac(2);
        // −0.3125 (raw −5 at 4 frac bits) truncates to −0.5 (raw −2).
        assert_eq!(requant_raw(RoundingScheme::Truncation, -5, 4, out, 0.0), -2);
        // RTN: −0.3125 is nearer −0.25 (raw −1).
        assert_eq!(
            requant_raw(RoundingScheme::RoundToNearest, -5, 4, out, 0.0),
            -1
        );
    }

    #[test]
    fn rtne_ties_to_even_both_signs() {
        let out = QFormat::with_frac(2);
        let rtne = RoundingScheme::RoundToNearestEven;
        // +0.375 (raw 6 at 4 bits): between raw 1 and 2 → even 2.
        assert_eq!(requant_raw(rtne, 6, 4, out, 0.0), 2);
        // +0.125 (raw 2): between raw 0 and 1 → even 0.
        assert_eq!(requant_raw(rtne, 2, 4, out, 0.0), 0);
        // −0.125 (raw −2): between raw −1 and 0 → even 0.
        assert_eq!(requant_raw(rtne, -2, 4, out, 0.0), 0);
        // −0.375 (raw −6): between raw −2 and −1 → even −2.
        assert_eq!(requant_raw(rtne, -6, 4, out, 0.0), -2);
    }

    #[test]
    fn stochastic_direction_follows_draw() {
        let out = QFormat::with_frac(2);
        let sr = RoundingScheme::Stochastic;
        // 0.3125 (raw 5 at 4 bits): frac = 0.25 above the floor raw 1.
        assert_eq!(requant_raw(sr, 5, 4, out, 0.1), 2); // u < frac → up
        assert_eq!(requant_raw(sr, 5, 4, out, 0.25), 1); // u ≥ frac → down
                                                         // On-grid values never move regardless of the draw.
        assert_eq!(requant_raw(sr, 4, 4, out, 0.0), 1);
    }

    /// `requant_slice_with` against per-element `requant_raw` on the same
    /// values and draws, recording which draws the slice path asks for.
    fn check_slice_against_scalar(
        scheme: RoundingScheme,
        raws: &[i64],
        in_frac: u8,
        out: QFormat,
        draws: &[f64],
    ) {
        let u = |i: usize| draws[i % draws.len()];
        let want: Vec<i64> = raws
            .iter()
            .enumerate()
            .map(|(i, &r)| requant_raw(scheme, r, in_frac, out, u(i)))
            .collect();
        let mut got = raws.to_vec();
        let mut asked = Vec::new();
        requant_slice_with(scheme, &mut got, in_frac, out, |i| {
            asked.push(i);
            u(i)
        });
        assert_eq!(got, want, "{scheme} in_frac={in_frac} out={out}");
        // One draw per element, in slice order, under SR only.
        let expect_asked: Vec<usize> = match scheme {
            RoundingScheme::Stochastic => (0..raws.len()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(asked, expect_asked, "{scheme} draw sequence");
    }

    #[test]
    fn hoisted_slice_matches_per_element_requant_raw() {
        // (in_frac, out) pairs covering shift ≤ 0 (including widenings
        // whose products overflow i64 and must saturate), 1..=52, the
        // > 52 shifts where the remainder is no longer exact in f64, and
        // the ≥ 63 shifts that take the i128 fallback.
        let cases = [
            (3u8, QFormat::with_frac(3)),
            (3, QFormat::with_frac(9)),
            (0, QFormat::new(1, 61)),
            (2, QFormat::new(20, 40)),
            (11, QFormat::with_frac(2)),
            (11, QFormat::with_frac(5)),
            (11, QFormat::with_frac(10)),
            (20, QFormat::with_frac(5)),
            (40, QFormat::with_frac(5)),
            (52, QFormat::new(8, 0)),
            (56, QFormat::with_frac(3)),
            (60, QFormat::new(30, 2)),
            (62, QFormat::new(2, 0)),
            (63, QFormat::new(2, 0)),
            (100, QFormat::with_frac(2)),
        ];
        let draws = [0.0, 0.999_999, 0.5, 0.25, 1e-12, 0.75, 0.5 - 1e-16, 0.123];
        for scheme in RoundingScheme::EXTENDED {
            for &(in_frac, out) in &cases {
                // Exhaustive over a 13-bit window, then the extremes.
                let mut raws: Vec<i64> = (-(1i64 << 12)..(1i64 << 12)).collect();
                raws.extend([
                    i64::MIN,
                    i64::MIN + 1,
                    i64::MAX,
                    i64::MAX - 1,
                    1 << 40,
                    -(1 << 40) - 1,
                    out.min_raw() - 1,
                    out.max_raw() + 1,
                    (1 << 52) + 3,
                    -(1 << 60) + 7,
                ]);
                check_slice_against_scalar(scheme, &raws, in_frac, out, &draws);
            }
        }
    }

    #[test]
    fn hoisted_slice_matches_on_every_narrow_word() {
        // Every 8-bit input word against every output width, every scheme,
        // with each input seeing several draws.
        for scheme in RoundingScheme::EXTENDED {
            for in_frac in 0u8..=9 {
                for out_frac in 0u8..=9 {
                    let out = QFormat::with_frac(out_frac);
                    let raws: Vec<i64> = (-256i64..256).flat_map(|r| [r; 3]).collect();
                    let draws = [0.1, 0.5, 0.9, 0.0, 0.375];
                    check_slice_against_scalar(scheme, &raws, in_frac, out, &draws);
                }
            }
        }
    }

    #[test]
    fn slice_draw_discipline_matches_reference() {
        // The keyed stream must produce the same bits through the integer
        // slice path and the f32 round_slice_with path.
        let out = QFormat::with_frac(3);
        let in_frac = 10u8;
        let base = 0xDEAD_BEEF_u64;
        let raws: Vec<i64> = (-40..40).map(|i| i * 13 % (1 << 10)).collect();
        let mut ints = raws.clone();
        requant_slice_with(RoundingScheme::Stochastic, &mut ints, in_frac, out, |i| {
            sr_uniform(base, i as u64)
        });
        let mut floats: Vec<f32> = raws
            .iter()
            .map(|&r| (r as f64 * (-(in_frac as f64)).exp2()) as f32)
            .collect();
        RoundingScheme::Stochastic
            .round_slice_with(&mut floats, out, |i| sr_uniform(base, i as u64));
        let got: Vec<f32> = ints.iter().map(|&r| r as f32 * out.precision()).collect();
        assert_eq!(got, floats);
    }
}
