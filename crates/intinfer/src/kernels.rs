//! Integer linear kernels: quantized convolution and capsule-vote GEMM
//! with exact integer accumulators.
//!
//! Both kernels accumulate exact integer partial sums (products of raw
//! values at `x.frac + w_frac` fractional bits — integer addition is
//! associative, so any loop order gives the same accumulator) and hand
//! each finished output row to a writeback epilogue keyed by the row's
//! global element offset. Parallelism therefore cannot change a single
//! bit: the epilogue key depends only on the position, never the thread.
//!
//! The convolution runs on the f32 path's blocked implicit GEMM
//! ([`qcn_tensor::conv::conv2d_gemm`]), accumulating in `i32` when the
//! operand bounds prove it cannot overflow and in `i64` otherwise.

use crate::tensor::IntTensor;
use qcn_tensor::conv::{conv2d_gemm, Conv2dSpec};
use qcn_tensor::parallel;
use std::borrow::Cow;
use std::ops::Range;

/// A writeback epilogue: called with the global element offset of a
/// finished output row and the row itself (same contract as the f32
/// kernels' `RowEpilogue`).
pub type RowEpi = dyn Fn(usize, &mut [i64]) + Sync;

/// The largest magnitude in `values` (0 when empty).
fn max_abs(values: &[i64]) -> u64 {
    values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0)
}

/// Raw weights prepared once for the integer kernels (at
/// [`IntModel::load`](crate::IntModel::load)): the words at the narrowest
/// of `i32` / `i64` that holds them all, and their largest magnitude —
/// the `max|w|` of the accumulator-width proof. Searched wordlengths are
/// ≤ 16 bits, so deployed models store every tensor as `i32`: half the
/// memory of `i64` words, and the form the narrow GEMM multiplies.
#[derive(Debug, Clone)]
pub struct RawWeights {
    words: Storage,
    max_abs: u64,
}

#[derive(Debug, Clone)]
enum Storage {
    Narrow(Vec<i32>),
    Wide(Vec<i64>),
}

impl RawWeights {
    /// Prepares `words`: one scan for `max|w|`, then a copy at the
    /// narrowest width that holds them.
    pub fn new(words: &[i64]) -> Self {
        let max_abs = max_abs(words);
        let words = if max_abs <= i32::MAX as u64 {
            Storage::Narrow(words.iter().map(|&w| w as i32).collect())
        } else {
            Storage::Wide(words.to_vec())
        };
        RawWeights { words, max_abs }
    }

    /// A borrowed view of all the words.
    pub fn view(&self) -> WeightsView<'_> {
        let words = match &self.words {
            Storage::Narrow(w) => Words::Narrow(w),
            Storage::Wide(w) => Words::Wide(w),
        };
        WeightsView {
            words,
            max_abs: self.max_abs,
        }
    }
}

/// A borrowed, possibly sub-ranged [`RawWeights`].
#[derive(Debug, Clone, Copy)]
pub struct WeightsView<'a> {
    words: Words<'a>,
    max_abs: u64,
}

#[derive(Debug, Clone, Copy)]
enum Words<'a> {
    Narrow(&'a [i32]),
    Wide(&'a [i64]),
}

impl<'a> WeightsView<'a> {
    /// The words in `range` (e.g. one input type's filters). The whole
    /// tensor's `max|w|` stays as the bound: it holds for any sub-range.
    pub(crate) fn slice(self, range: Range<usize>) -> Self {
        let words = match self.words {
            Words::Narrow(w) => Words::Narrow(&w[range]),
            Words::Wide(w) => Words::Wide(&w[range]),
        };
        WeightsView { words, ..self }
    }

    fn len(&self) -> usize {
        match self.words {
            Words::Narrow(w) => w.len(),
            Words::Wide(w) => w.len(),
        }
    }

    /// The words as `i64` (borrowed when stored wide).
    fn widened(&self) -> Cow<'a, [i64]> {
        match self.words {
            Words::Narrow(w) => Cow::Owned(w.iter().map(|&v| i64::from(v)).collect()),
            Words::Wide(w) => Cow::Borrowed(w),
        }
    }
}

/// The accumulator-width proof: whether every partial sum of a `k`-term
/// dot product of operands bounded by `x_max` and `w_max`, plus a bias
/// bounded by `bias_max << bias_shift`, stays strictly inside `±2^31` —
/// `k·max|x|·max|w| + |bias << x.frac| < 2^31`. Computed in saturating
/// `u128`, so huge operands simply fail the proof.
fn fits_i32(k: usize, x_max: u64, w_max: u64, bias_max: u64, bias_shift: u32) -> bool {
    let bias = match bias_max {
        0 => 0,
        _ if bias_shift >= 64 => u128::MAX,
        _ => u128::from(bias_max) << bias_shift,
    };
    (k as u128)
        .saturating_mul(u128::from(x_max))
        .saturating_mul(u128::from(w_max))
        .saturating_add(bias)
        < 1 << 31
}

/// Integer 2-D convolution over `[b, ci, h, w]` with zero padding, on the
/// blocked implicit GEMM.
///
/// `weight` is a flat `[co, ci, kh, kw]` blob of raw values; `bias` (at the
/// weight's fractional width) is widened by `x.frac` so it lands on the
/// accumulator grid exactly. `x_max` bounds `|x|` when the operand's
/// format does (a requantized activation on `Q1.f` has `|x| ≤ 2^f`);
/// `None` scans the input once (the model input, whose format is
/// unbounded). When `k·max|x|·max|w| + |bias << x.frac| < 2^31`
/// (`k = ci·kh·kw`) proves the sums cannot overflow, patches are narrowed
/// to `i32` as they are packed and accumulate in `i32`; otherwise
/// everything runs in `i64`. Either way each row is
/// widened to `i64` on store, gets its bias, and is passed to `epi` with
/// the row's global offset — the same `(b·co + ch)·oh·ow` keying as the
/// f32 reference's fused conv epilogue. Integer sums are exact, so both
/// widths and every tiling give the same bits.
///
/// The result's raw values sit at `x.frac + w_frac` fractional bits unless
/// `epi` requantized them; `out_frac` labels whatever the epilogue leaves
/// behind.
///
/// # Panics
///
/// Panics on geometry mismatches.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_raw(
    x: &IntTensor,
    x_max: Option<u64>,
    weight: WeightsView<'_>,
    bias: Option<WeightsView<'_>>,
    co: usize,
    spec: Conv2dSpec,
    out_frac: u8,
    epi: Option<&RowEpi>,
) -> IntTensor {
    assert_eq!(x.rank(), 4, "conv input must be [b, ci, h, w]");
    let (b, ci, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let k = ci * spec.kh * spec.kw;
    assert_eq!(weight.len(), co * k, "conv weight count mismatch");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), co, "conv bias count mismatch");
    }
    let (oh, ow) = spec.output_hw(h, w);
    let ncols = oh * ow;
    let mut out = IntTensor::zeros(vec![b, co, oh, ow], out_frac);
    if ncols == 0 || b * co == 0 {
        return out;
    }
    let x_max = x_max.unwrap_or_else(|| max_abs(x.data()));
    debug_assert!(
        max_abs(x.data()) <= x_max,
        "conv operand exceeds its bound {x_max}"
    );
    let bias_shift = x.frac() as u32;
    let bias_max = bias.map_or(0, |bv| bv.max_abs);
    let bias = bias.map(|bv| bv.widened());
    let bias = bias.as_deref();
    let per_row = |idx: usize, row: &mut [i64]| {
        if let Some(bv) = bias {
            let init = bv[idx % co] << bias_shift;
            row.iter_mut().for_each(|v| *v += init);
        }
        if let Some(epi) = epi {
            epi(idx * ncols, row);
        }
    };
    let dims = [b, ci, h, w];
    match weight.words {
        // The proof bounds max|x| below 2^31 unless every weight is zero
        // (then every product is zero however x narrows): narrowing the
        // patches is exact. Narrow-stored weights are all a proof can
        // pass, since it also bounds max|w| below 2^31.
        Words::Narrow(wn) if fits_i32(k, x_max, weight.max_abs, bias_max, bias_shift) => {
            conv2d_gemm(
                x.data(),
                dims,
                wn,
                co,
                spec,
                out.data_mut(),
                |v: i64| v as i32,
                per_row,
            );
        }
        _ => conv2d_gemm(
            x.data(),
            dims,
            &weight.widened(),
            co,
            spec,
            out.data_mut(),
            |v: i64| v,
            per_row,
        ),
    }
    out
}

/// Integer capsule-vote kernel: `û[b,i,j,·] = u[b,i,·] · W[i,j,·,·]` on raw
/// values, mirroring `qcn_capsnet::layers::caps_votes_infer_fused`.
///
/// `weight` is a flat `[ni, nj, di, dj]` blob. Each `(batch, input
/// capsule)` panel of `nj·dj` outputs is produced by one worker and passed
/// to `epi` keyed by `item·nj·dj` — the reference's exact epilogue offset.
/// The output is `[b, ni, nj, dj]` at whatever precision `epi` leaves
/// (`out_frac`).
///
/// # Panics
///
/// Panics on geometry mismatches.
pub fn caps_votes_raw(
    input: &IntTensor,
    weight: WeightsView<'_>,
    nj: usize,
    dj: usize,
    out_frac: u8,
    epi: &RowEpi,
) -> IntTensor {
    assert_eq!(input.rank(), 3, "caps votes input must be [b, i, di]");
    let (b, ni, di) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    assert_eq!(
        weight.len(),
        ni * nj * di * dj,
        "caps votes weight count mismatch"
    );
    let mut out = IntTensor::zeros(vec![b, ni, nj, dj], out_frac);
    if nj * dj == 0 || b * ni == 0 {
        return out;
    }
    match weight.words {
        Words::Narrow(w) => votes_into(input, w, nj, dj, &mut out, epi),
        Words::Wide(w) => votes_into(input, w, nj, dj, &mut out, epi),
    }
    out
}

/// [`caps_votes_raw`]'s loop over either weight width, accumulating in
/// `i64`.
fn votes_into<W: Copy + Into<i64> + Sync>(
    input: &IntTensor,
    weight: &[W],
    nj: usize,
    dj: usize,
    out: &mut IntTensor,
    epi: &RowEpi,
) {
    let (ni, di) = (input.dims()[1], input.dims()[2]);
    let inp = input.data();
    let min_items = (16_384 / (di * nj * dj).max(1)).max(1);
    parallel::par_chunks_mut(out.data_mut(), nj * dj, min_items, |item, panel| {
        let (bi, ii) = (item / ni, item % ni);
        let u = &inp[(bi * ni + ii) * di..(bi * ni + ii + 1) * di];
        for jj in 0..nj {
            let w_base = (ii * nj + jj) * di * dj;
            let o_row = &mut panel[jj * dj..(jj + 1) * dj];
            for (d, &ud) in u.iter().enumerate() {
                let w_row = &weight[w_base + d * dj..w_base + (d + 1) * dj];
                for (o, &wv) in o_row.iter_mut().zip(w_row) {
                    *o += ud * wv.into();
                }
            }
        }
        epi(item * nj * dj, panel);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epilogue::KeyedRequant;
    use crate::tensor::raw_to_f32;
    use proptest::prelude::*;
    use qcn_capsnet::layers::caps_votes_infer;
    use qcn_fixed::RoundingScheme;
    use qcn_tensor::conv::conv2d;
    use qcn_tensor::parallel::with_threads;
    use qcn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn as_f32(t: &IntTensor) -> Tensor {
        t.to_f32()
    }

    /// The direct scalar convolution the engine ran before the blocked
    /// GEMM: a seven-deep `i64` loop, bias-initialized rows, one worker
    /// per `(batch, channel)` row. Kept as the differential oracle.
    fn conv2d_raw_reference(
        x: &IntTensor,
        weight: &[i64],
        bias: Option<&[i64]>,
        co: usize,
        spec: Conv2dSpec,
        out_frac: u8,
        epi: Option<&RowEpi>,
    ) -> IntTensor {
        let (b, ci, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = spec.output_hw(h, w);
        let ncols = oh * ow;
        let mut out = IntTensor::zeros(vec![b, co, oh, ow], out_frac);
        if ncols == 0 || b * co == 0 {
            return out;
        }
        let xd = x.data();
        let bias_shift = x.frac() as u32;
        parallel::par_chunks_mut(out.data_mut(), ncols, 1, |idx, row| {
            let (bi, ch) = (idx / co, idx % co);
            let init = bias.map_or(0, |bv| bv[ch] << bias_shift);
            row.iter_mut().for_each(|v| *v = init);
            let wbase = ch * ci * spec.kh * spec.kw;
            for c in 0..ci {
                let plane = &xd[(bi * ci + c) * h * w..(bi * ci + c + 1) * h * w];
                for ki in 0..spec.kh {
                    for kj in 0..spec.kw {
                        let wv = weight[wbase + (c * spec.kh + ki) * spec.kw + kj];
                        for oi in 0..oh {
                            let iy = (oi * spec.stride + ki) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for oj in 0..ow {
                                let ix = (oj * spec.stride + kj) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                row[oi * ow + oj] += wv * plane[iy as usize * w + ix as usize];
                            }
                        }
                    }
                }
            }
            if let Some(epi) = epi {
                epi(idx * ncols, row);
            }
        });
        out
    }

    #[test]
    fn conv_matches_f32_reference_on_grid_values() {
        let x = IntTensor::from_raw(
            (0..2 * 3 * 5 * 5).map(|i| (i % 17) - 8).collect(),
            vec![2, 3, 5, 5],
            4,
        );
        let weight: Vec<i64> = (0..4 * 3 * 3 * 3).map(|i| ((i * 7) % 13) - 6).collect();
        let bias: Vec<i64> = (0..4).map(|i| i - 2).collect();
        let spec = Conv2dSpec::new(3, 3, 2, 1);
        let (rw, rb) = (RawWeights::new(&weight), RawWeights::new(&bias));
        let got = conv2d_raw(&x, None, rw.view(), Some(rb.view()), 4, spec, 8, None);
        let xf = as_f32(&x);
        let wf = Tensor::from_vec(
            weight.iter().map(|&v| raw_to_f32(v, 4)).collect(),
            [4, 3, 3, 3],
        )
        .unwrap();
        let bf = Tensor::from_vec(bias.iter().map(|&v| raw_to_f32(v, 4)).collect(), [4]).unwrap();
        let want = conv2d(&xf, &wf, Some(&bf), spec);
        assert_eq!(got.dims(), want.dims());
        assert_eq!(got.frac(), 8);
        assert_eq!(got.to_f32().data(), want.data());
    }

    #[test]
    fn accumulator_width_proof_boundary() {
        // 2^31 − 1 fits; 2^31 does not.
        assert!(fits_i32(1, (1 << 31) - 1, 1, 0, 0));
        assert!(!fits_i32(1, 1 << 31, 1, 0, 0));
        assert!(!fits_i32(2, 1 << 30, 1, 0, 0));
        // The bias term counts at the accumulator's grid (<< x.frac).
        assert!(fits_i32(1, 1 << 29, 1, 1, 30));
        assert!(!fits_i32(1, 1 << 30, 1, 1, 30));
        assert!(!fits_i32(1, 0, 0, 1, 64));
        // Huge operands saturate instead of wrapping into a false "fits".
        assert!(!fits_i32(usize::MAX, u64::MAX, u64::MAX, u64::MAX, 63));
        // The serving workload's widths: Q1.4 weights, Q1.6 input, k = 600.
        assert!(fits_i32(600, 1 << 6, 1 << 4, 1 << 4, 6));
    }

    /// One random convolution case: geometry, operand magnitudes and
    /// whether it can take the narrow path.
    #[derive(Debug, Clone)]
    struct ConvCase {
        x: IntTensor,
        weight: Vec<i64>,
        bias: Option<Vec<i64>>,
        co: usize,
        spec: Conv2dSpec,
    }

    /// Random geometry (`b`, `ci`, `co`, `kh`/`kw`, stride, padding —
    /// sizes straddling the `MR`/`NR`/`KC` tile edges) with operands of
    /// `x_bits` / `w_bits` magnitude: narrow widths prove `i32`, wide ones
    /// force the `i64` fallback.
    fn conv_case(seed: u64, x_bits: u32, w_bits: u32) -> ConvCase {
        let mut rng = StdRng::seed_from_u64(seed);
        let (kh, kw) = (rng.gen_range(1..=5usize), rng.gen_range(1..=5usize));
        let stride = rng.gen_range(1..=3usize);
        let padding = rng.gen_range(0..=2usize);
        let h = rng.gen_range(kh.saturating_sub(2 * padding).max(1)..=kh + 12);
        let w = rng.gen_range(kw.saturating_sub(2 * padding).max(1)..=kw + 12);
        let (b, ci, co) = (
            rng.gen_range(1..=3usize),
            rng.gen_range(1..=40usize),
            rng.gen_range(1..=9usize),
        );
        let mut draw = |bits: u32| -> i64 {
            let span = 1i64 << bits;
            rng.gen_range(-span..=span)
        };
        // One operand of each kind sits at the bound, so the proof sees
        // the full `2^bits` magnitude whatever the other draws are.
        let mut xs: Vec<i64> = (0..b * ci * h * w).map(|_| draw(x_bits)).collect();
        xs[0] = -(1 << x_bits);
        let mut weight: Vec<i64> = (0..co * ci * kh * kw).map(|_| draw(w_bits)).collect();
        weight[0] = 1 << w_bits;
        let x = IntTensor::from_raw(xs, vec![b, ci, h, w], x_bits.min(20) as u8);
        let bias = (!seed.is_multiple_of(3)).then(|| (0..co).map(|_| draw(w_bits)).collect());
        ConvCase {
            x,
            weight,
            bias,
            co,
            spec: Conv2dSpec::new(kh, kw, stride, padding),
        }
    }

    /// The blocked kernel against the scalar reference, bit for bit, with
    /// and without a stochastic-rounding epilogue, at 1/2/7 threads.
    /// Returns whether the case proved narrow (`i32`) accumulation.
    fn check_against_reference(case: &ConvCase, seed: u64) -> bool {
        let ConvCase {
            x,
            weight,
            bias,
            co,
            spec,
        } = case;
        let acc = x.frac() + 4;
        let rq = KeyedRequant::new(RoundingScheme::Stochastic, acc, 5, seed);
        let epi = move |off: usize, row: &mut [i64]| rq.apply_raw(off, row);
        let rw = RawWeights::new(weight);
        let rb = bias.as_deref().map(RawWeights::new);
        let bias = bias.as_deref();
        for epi in [None, Some(&epi as &RowEpi)] {
            let out_frac = if epi.is_some() { 5 } else { acc };
            let want = with_threads(1, || {
                conv2d_raw_reference(x, weight, bias, *co, *spec, out_frac, epi)
            });
            for t in [1, 2, 7] {
                for x_max in [None, Some(max_abs(x.data()))] {
                    let got = with_threads(t, || {
                        let rb = rb.as_ref().map(RawWeights::view);
                        conv2d_raw(x, x_max, rw.view(), rb, *co, *spec, out_frac, epi)
                    });
                    assert_eq!(got, want, "threads {t}, x_max {x_max:?}, {spec:?}");
                }
            }
        }
        let k = x.dims()[1] * spec.kh * spec.kw;
        let bias_max = bias.map_or(0, max_abs);
        fits_i32(
            k,
            max_abs(x.data()),
            rw.view().max_abs,
            bias_max,
            x.frac() as u32,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Narrow words (≤ 8-bit magnitudes): the `i32` path.
        #[test]
        fn blocked_conv_matches_scalar_reference_narrow(seed in 0u64..1 << 40, bits in 1u32..=8) {
            let case = conv_case(seed, bits, bits);
            prop_assert!(check_against_reference(&case, seed));
        }

        /// Wide operands: 2^20-scale activations and weights (products
        /// near 2^40, weights still stored as `i32`), or weights beyond
        /// `i32` (stored as `i64`). The proof fails and the `i64`
        /// fallback runs.
        #[test]
        fn blocked_conv_matches_scalar_reference_wide(seed in 0u64..1 << 40, bits in 18u32..=22) {
            let (x_bits, w_bits) = if seed % 2 == 0 { (bits, bits) } else { (10, bits + 13) };
            let case = conv_case(seed, x_bits, w_bits);
            prop_assert!(!check_against_reference(&case, seed));
        }
    }

    #[test]
    fn large_input_forces_i64_with_narrow_weights() {
        // Narrow weights but a model input far off the activation range:
        // the scan finds max|x| = 2^28 and the proof sends it to i64.
        let mut case = conv_case(11, 3, 3);
        case.x.data_mut()[0] = 1 << 28;
        assert!(!check_against_reference(&case, 11));
    }

    #[test]
    fn votes_match_f32_reference_on_grid_values() {
        let input = IntTensor::from_raw(
            (0..2 * 5 * 3).map(|i| (i % 11) - 5).collect(),
            vec![2, 5, 3],
            3,
        );
        let weight: Vec<i64> = (0..5 * 4 * 3 * 2).map(|i| ((i * 5) % 9) - 4).collect();
        let noop = |_: usize, _: &mut [i64]| {};
        let got = caps_votes_raw(&input, RawWeights::new(&weight).view(), 4, 2, 6, &noop);
        let inf = as_f32(&input);
        let wf = Tensor::from_vec(
            weight.iter().map(|&v| raw_to_f32(v, 3)).collect(),
            [5, 4, 3, 2],
        )
        .unwrap();
        let want = caps_votes_infer(&inf, &wf);
        assert_eq!(got.dims(), want.dims());
        assert_eq!(got.to_f32().data(), want.data());
    }
}
