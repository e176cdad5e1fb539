//! The benchmarked network: ShallowCaps-S on synthetic MNIST, trained
//! once by `qcnbench train` into `model/` beside this package.
//!
//! The paper's framework takes a *trained* model as input, so training is
//! not part of any workload. Every run loads the stored weights and checks
//! that they reproduce the recorded FP32 accuracy bit for bit before any
//! timing starts.

use qcapsnets::Evaluator;
use qcn_capsnet::{
    train, CapsNet, LayerQuant, ModelQuant, ShallowCaps, ShallowCapsConfig, TrainConfig,
};
use qcn_datasets::augment::AugmentPolicy;
use qcn_datasets::{Dataset, SynthKind};
use qcn_fixed::RoundingScheme;
use std::fs;
use std::path::PathBuf;

/// Evaluation mini-batch of the search (bench_report's `search_base`).
pub const EVAL_BATCH: usize = 6;

/// Fractional bits of the serving input grid: inputs are rounded to
/// multiples of `2^-IN_FRAC`, the grid the integer engine executes on.
pub const IN_FRAC: u8 = 6;

/// Per-sample input geometry `[c, h, w]`.
pub const INPUT_DIMS: [usize; 3] = [1, 16, 16];

fn model_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("model")
}

fn weights_path() -> PathBuf {
    model_dir().join("shallowcaps_s.params")
}

fn record_path() -> PathBuf {
    model_dir().join("shallowcaps_s.fp32_accuracy")
}

/// The untrained architecture (bench_report's ShallowCaps-S).
pub fn architecture() -> ShallowCaps {
    let config = ShallowCapsConfig {
        conv_channels: 64,
        primary_types: 2,
        digit_dim: 6,
        ..ShallowCapsConfig::small(1)
    };
    ShallowCaps::new(config, 5)
}

/// The training set and the held-out evaluation set the search scores
/// configurations on.
pub fn datasets() -> (Dataset, Dataset) {
    SynthKind::Mnist.train_test(600, 120, 5)
}

/// FP32 accuracy exactly as Algorithm 1 measures it (line 3).
pub fn fp32_accuracy(model: &ShallowCaps, eval_set: &Dataset) -> f32 {
    Evaluator::new(model, eval_set, EVAL_BATCH).accuracy(&ModelQuant::full_precision(3))
}

/// Trains the model, stores its weights and records its FP32 accuracy.
pub fn train_and_store() -> Result<f32, String> {
    let mut model = architecture();
    let (train_set, eval_set) = datasets();
    train(
        &mut model,
        &train_set,
        &eval_set,
        &TrainConfig {
            epochs: 8,
            batch_size: 25,
            lr: 0.01,
            augment: AugmentPolicy::none(),
            ..TrainConfig::default()
        },
    );
    let acc = fp32_accuracy(&model, &eval_set);
    let mut bytes = Vec::new();
    let params = model.params();
    bytes.extend_from_slice(&(params.len() as u64).to_le_bytes());
    for p in params {
        bytes.extend_from_slice(&(p.len() as u64).to_le_bytes());
        for &v in p.data() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fs::create_dir_all(model_dir()).map_err(|e| format!("create model dir: {e}"))?;
    fs::write(weights_path(), bytes).map_err(|e| format!("write weights: {e}"))?;
    fs::write(record_path(), format!("{:#010x}\n", acc.to_bits()))
        .map_err(|e| format!("write accuracy record: {e}"))?;
    Ok(acc)
}

/// Loads the stored weights and checks them against the recorded FP32
/// accuracy. Returns the model, its evaluation set and that accuracy.
pub fn load_checked() -> Result<(ShallowCaps, Dataset, f32), String> {
    let path = weights_path();
    let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut model = architecture();
    let mut offset = 0usize;
    let next_u64 = |offset: &mut usize| {
        *offset += 8;
        bytes
            .get(*offset - 8..*offset)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
    };
    let count = next_u64(&mut offset).ok_or("weights file truncated")?;
    let mut params = model.params_mut();
    if count != params.len() {
        return Err(format!(
            "weights file holds {count} tensors, the architecture has {}",
            params.len()
        ));
    }
    for p in params.iter_mut() {
        let len = next_u64(&mut offset).ok_or("weights file truncated")?;
        if len != p.len() {
            return Err(format!(
                "weights tensor of {len} values, expected {}",
                p.len()
            ));
        }
        let chunk = bytes
            .get(offset..offset + 4 * len)
            .ok_or("weights file truncated")?;
        offset += 4 * len;
        for (dst, src) in p.data_mut().iter_mut().zip(chunk.chunks_exact(4)) {
            *dst = f32::from_le_bytes(src.try_into().expect("4 bytes"));
        }
    }
    if offset != bytes.len() {
        return Err("weights file has trailing bytes".into());
    }
    let record =
        fs::read_to_string(record_path()).map_err(|e| format!("read accuracy record: {e}"))?;
    let want = u32::from_str_radix(record.trim().trim_start_matches("0x"), 16)
        .map_err(|e| format!("parse accuracy record: {e}"))?;
    let (_, eval_set) = datasets();
    let got = fp32_accuracy(&model, &eval_set);
    if got.to_bits() != want {
        return Err(format!(
            "loaded model scores FP32 accuracy {got} ({:#010x}), recorded {} ({want:#010x})",
            got.to_bits(),
            f32::from_bits(want)
        ));
    }
    Ok((model, eval_set, got))
}

fn layer(weight: u8, act: u8, dr: Option<u8>) -> LayerQuant {
    LayerQuant {
        weight_frac: Some(weight),
        act_frac: Some(act),
        dr_frac: dr,
        stream_frac: None,
    }
}

/// The RTN Path A configuration, recorded from the `search` workload, that
/// `serve_fq_rtn` serves. An untraced `search` run notes when the search
/// no longer selects it.
pub fn rtn_serving_config() -> ModelQuant {
    ModelQuant {
        layers: vec![layer(3, 3, None), layer(3, 3, None), layer(3, 3, Some(3))],
        scheme: RoundingScheme::RoundToNearest,
        seed: 0,
    }
}

/// The SR configuration `serve_int_sr` serves: uniform Q.4 (5-bit words).
/// The SR run of the search reaches Q_DR = 3, at which the integer
/// engine's pure-integer squash and softmax classify at chance level, so
/// the integer workload serves the narrowest uniform width whose integer
/// units still classify (87.5 % on the grid-rounded evaluation set).
pub fn sr_serving_config() -> ModelQuant {
    ModelQuant::uniform(3, 4, RoundingScheme::Stochastic)
}

/// Multiply-accumulates per sample of each pipeline stage, computed from
/// the layer shapes (valid convolutions; DigitCaps votes plus the
/// weighted-sum and agreement products of every routing iteration).
pub fn stage_macs(model: &ShallowCaps) -> [u64; 3] {
    let c = model.config();
    let side1 = (c.image_side - c.conv_kernel + 1) as u64;
    let side2 =
        ((c.image_side - c.conv_kernel + 1 - c.primary_kernel) / c.primary_stride + 1) as u64;
    let (k1, k2) = (
        (c.conv_kernel * c.conv_kernel) as u64,
        (c.primary_kernel * c.primary_kernel) as u64,
    );
    let conv_out = c.conv_channels as u64;
    let prim_out = (c.primary_types * c.primary_dim) as u64;
    let in_caps = side2 * side2 * c.primary_types as u64;
    let (classes, dd) = (c.num_classes as u64, c.digit_dim as u64);
    [
        side1 * side1 * conv_out * c.in_channels as u64 * k1,
        side2 * side2 * prim_out * conv_out * k2,
        in_caps * classes * c.primary_dim as u64 * dd
            + c.routing_iters as u64 * 2 * in_caps * classes * dd,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_macs_match_the_layer_geometry() {
        let model = architecture();
        let groups = model.groups();
        let c = model.config();
        let macs = stage_macs(&model);
        // Output activations × per-output fan-in, for both convolutions.
        assert_eq!(
            macs[0],
            groups[0].activation_count as u64 * (c.conv_kernel * c.conv_kernel) as u64
        );
        assert_eq!(
            macs[1],
            groups[1].activation_count as u64
                * (c.conv_channels * c.primary_kernel * c.primary_kernel) as u64
        );
        assert_eq!(macs[2], 32 * 10 * 4 * 6 + 3 * 2 * 32 * 10 * 6);
    }
}
