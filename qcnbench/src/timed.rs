//! Benchmark-side wrappers that time the program's public layer
//! boundaries: every `CapsNet::infer_stage` and every
//! `ServeEngine::infer_batch` call becomes a span of a traced run.
//! Outside a traced run they only forward.

use crate::trace;
use qcn_autograd::{Graph, Var};
use qcn_capsnet::{CapsNet, GroupInfo, ModelQuant, QuantCtx};
use qcn_serve::ServeEngine;
use qcn_tensor::Tensor;

/// A `CapsNet` whose pipeline stages record `capsnet.stage` spans,
/// labelled with the stage's group name and sized by the batch.
#[derive(Clone)]
pub struct TimedCapsNet<M: CapsNet> {
    inner: M,
    stage_names: Vec<String>,
}

impl<M: CapsNet> TimedCapsNet<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        let stage_names = inner.groups().into_iter().map(|g| g.name).collect();
        TimedCapsNet { inner, stage_names }
    }
}

impl<M: CapsNet> CapsNet for TimedCapsNet<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn groups(&self) -> Vec<GroupInfo> {
        self.inner.groups()
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }

    fn forward(&self, g: &mut Graph, x: Var, pvars: &[Var]) -> Var {
        self.inner.forward(g, x, pvars)
    }

    fn num_stages(&self) -> usize {
        self.inner.num_stages()
    }

    fn infer_stage(
        &self,
        stage: usize,
        x: &Tensor,
        config: &ModelQuant,
        ctx: &mut QuantCtx,
    ) -> Tensor {
        let _span = trace::active().map(|t| {
            t.enter(
                "capsnet.stage",
                &self.stage_names[stage],
                x.dims()[0] as u64,
            )
        });
        self.inner.infer_stage(stage, x, config, ctx)
    }

    fn canonical_config(&self, config: &ModelQuant) -> ModelQuant {
        self.inner.canonical_config(config)
    }

    fn with_quantized_weights(&self, config: &ModelQuant) -> Self {
        TimedCapsNet {
            inner: self.inner.with_quantized_weights(config),
            stage_names: self.stage_names.clone(),
        }
    }
}

/// A `ServeEngine` whose invocations record `engine.infer_batch` spans,
/// sized by the batch.
pub struct TimedEngine<E: ServeEngine>(pub E);

impl<E: ServeEngine> ServeEngine for TimedEngine<E> {
    fn kind(&self) -> &str {
        self.0.kind()
    }

    fn input_dims(&self) -> &[usize] {
        self.0.input_dims()
    }

    fn output_dims(&self) -> &[usize] {
        self.0.output_dims()
    }

    fn batchable(&self) -> bool {
        self.0.batchable()
    }

    fn infer_batch(&self, x: &Tensor) -> Tensor {
        let _span = trace::active()
            .map(|t| t.enter("engine.infer_batch", self.0.kind(), x.dims()[0] as u64));
        self.0.infer_batch(x)
    }
}
