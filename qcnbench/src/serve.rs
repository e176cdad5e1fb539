//! The two serving workloads: open-loop Poisson traffic through the wire
//! protocol into `qcn-serve` replicas, optionally behind a `qcn-router`.

use crate::loadgen::{bits, play, Plan, Record, Status};
use crate::model::{self, EVAL_BATCH, INPUT_DIMS, IN_FRAC};
use crate::proc;
use crate::registry::Readings;
use crate::stats;
use crate::timed::{TimedCapsNet, TimedEngine};
use crate::trace::{self, Span};
use crate::Outcome;
use qcapsnets::export::pack_model;
use qcapsnets::memory::weight_memory_reduction;
use qcapsnets::ConfigScorer;
use qcn_capsnet::{CapsNet, ModelQuant, QuantCtx, ShallowCaps};
use qcn_datasets::{Dataset, SynthKind};
use qcn_intinfer::{IntEvaluator, IntModel, UnitMode};
use qcn_router::{Router, RouterConfig, RouterSnapshot};
use qcn_serve::{
    Client, FakeQuantEngine, IntEngine, MetricsSnapshot, ModelRegistry, ServeConfig, Server,
    SocketServer,
};
use qcn_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which engine a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `FakeQuantEngine` under the recorded RTN configuration: batchable.
    FakeQuantRtn,
    /// `IntEngine` in `UnitMode::Integer` under the recorded SR
    /// configuration: not batchable, so the server runs it per sample.
    IntegerSr,
}

/// A serving workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// The engine each replica serves.
    pub engine: Engine,
    /// Replicas; more than one puts a `Router` in front of them.
    pub replicas: usize,
    /// Open-loop Poisson arrival rate (requests per second).
    pub rate: f64,
}

/// `Client → Router → 2 replicas → FakeQuantEngine (RTN)`.
pub const FQ_RTN: Spec = Spec {
    name: "serve_fq_rtn",
    engine: Engine::FakeQuantRtn,
    replicas: 2,
    rate: 500.0,
};

/// `Client → 1 replica → IntEngine (Integer units, SR)`.
pub const INT_SR: Spec = Spec {
    name: "serve_int_sr",
    engine: Engine::IntegerSr,
    replicas: 1,
    rate: 150.0,
};

/// Distinct request inputs per run.
const POOL: usize = 64;
const MODEL_ID: &str = "m";

/// Rounds every value onto the `2^-IN_FRAC` input grid the integer
/// engine executes on.
fn on_grid(x: &Tensor) -> Tensor {
    let scale = f32::from(1u16 << IN_FRAC);
    let data = x
        .data()
        .iter()
        .map(|v| (v * scale).round() / scale)
        .collect();
    Tensor::from_vec(data, x.dims().to_vec()).expect("same dims")
}

/// `POOL` synthetic digits from `seed`, on the input grid, as `[c, h, w]`
/// samples.
pub fn input_pool(seed: u64) -> Vec<Tensor> {
    let set = SynthKind::Mnist.generate(POOL, seed);
    (0..POOL).map(|i| on_grid(&set.image(i))).collect()
}

/// A running fleet plus everything needed to check its answers.
struct Fleet {
    replicas: Vec<SocketServer>,
    router: Option<Router>,
    inputs: Vec<Tensor>,
    oracles: Vec<Vec<u32>>,
    model: ShallowCaps,
    config: ModelQuant,
    engine: Engine,
}

impl Fleet {
    fn entry(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.replicas[0].local_addr(), Router::local_addr)
    }

    fn shutdown(self) {
        if let Some(router) = &self.router {
            router.shutdown();
        }
        for r in &self.replicas {
            r.shutdown();
        }
    }
}

fn as_batch(x: &Tensor) -> Tensor {
    let mut dims = vec![1];
    dims.extend_from_slice(x.dims());
    Tensor::from_vec(x.data().to_vec(), dims).expect("single-sample batch")
}

/// Loads the model, builds and binds the fleet, computes the cold
/// single-sample oracle of every pooled input, and returns once every
/// endpoint has answered one request correctly.
fn set_up(spec: &Spec, seed: u64) -> Result<Fleet, String> {
    let (model, _, _) = model::load_checked()?;
    let inputs = input_pool(seed);
    let serve_config = ServeConfig {
        max_batch: 8,
        queue_capacity: 4096,
        batch_window: Duration::from_millis(2),
        request_timeout: None,
        workers: 1,
        shed_watermark: None,
    };
    let (config, int_model) = match spec.engine {
        Engine::FakeQuantRtn => (model::rtn_serving_config(), None),
        Engine::IntegerSr => {
            let config = model::sr_serving_config();
            let int_model = IntModel::load(&model.descriptor(), &pack_model(&model, &config))
                .map_err(|e| format!("load integer model: {e:?}"))?;
            (config, Some(int_model))
        }
    };
    let oracles: Vec<Vec<u32>> = match &int_model {
        None => {
            let qmodel = model.with_quantized_weights(&config);
            inputs
                .iter()
                .map(|x| {
                    let mut ctx = QuantCtx::from_config(&config);
                    bits(&qmodel.infer(&as_batch(x), &config, &mut ctx))
                })
                .collect()
        }
        Some(m) => inputs
            .iter()
            .map(|x| bits(&m.infer(&as_batch(x), IN_FRAC, UnitMode::Integer)))
            .collect(),
    };
    let timed = TimedCapsNet::new(model.clone());
    let mut replicas = Vec::with_capacity(spec.replicas);
    for _ in 0..spec.replicas {
        let mut registry = ModelRegistry::new();
        let registered = match &int_model {
            None => registry.register(
                MODEL_ID,
                TimedEngine(FakeQuantEngine::new(&timed, config.clone(), INPUT_DIMS)),
            ),
            Some(m) => registry.register(
                MODEL_ID,
                TimedEngine(IntEngine::new(
                    m.clone(),
                    IN_FRAC,
                    UnitMode::Integer,
                    INPUT_DIMS,
                )),
            ),
        };
        registered.map_err(|e| format!("register engine: {e:?}"))?;
        let server = Arc::new(Server::start(registry, serve_config.clone()));
        replicas.push(
            SocketServer::bind(server, "127.0.0.1:0").map_err(|e| format!("bind replica: {e}"))?,
        );
    }
    let router = if spec.replicas > 1 {
        let mut cfg = RouterConfig::new(replicas.iter().map(SocketServer::local_addr));
        cfg.max_inflight = 4096;
        Some(Router::bind(cfg, "127.0.0.1:0").map_err(|e| format!("bind router: {e}"))?)
    } else {
        None
    };
    let fleet = Fleet {
        replicas,
        router,
        inputs,
        oracles,
        model,
        config,
        engine: spec.engine,
    };
    let mut endpoints: Vec<SocketAddr> = fleet.replicas.iter().map(|r| r.local_addr()).collect();
    if fleet.router.is_some() {
        endpoints.push(fleet.entry());
    }
    for addr in endpoints {
        let out = Client::connect(addr)
            .map_err(|e| format!("connect {addr}: {e}"))?
            .infer(MODEL_ID, &fleet.inputs[0])
            .map_err(|e| format!("warm-up request to {addr}: {e:?}"))?;
        if bits(&out) != fleet.oracles[0] {
            return Err(format!(
                "warm-up response from {addr} differs from the oracle"
            ));
        }
    }
    Ok(fleet)
}

/// The served configuration's weight-memory reduction and its accuracy
/// drop from FP32 on the grid-rounded evaluation set, in percentage points.
fn quality(fleet: &Fleet) -> (f64, f64) {
    let (_, eval_set) = model::datasets();
    let grid_set = Dataset::new(
        on_grid(eval_set.images()),
        eval_set.labels().to_vec(),
        eval_set.num_classes(),
    )
    .expect("same labels");
    let fp32 = model::fp32_accuracy(&fleet.model, &grid_set);
    let acc = match fleet.engine {
        Engine::FakeQuantRtn => {
            let qmodel = fleet.model.with_quantized_weights(&fleet.config);
            qcn_capsnet::accuracy(&qmodel, &grid_set, &fleet.config, EVAL_BATCH)
        }
        Engine::IntegerSr => IntEvaluator::new(
            &fleet.model,
            fleet.model.descriptor(),
            &grid_set,
            EVAL_BATCH,
            IN_FRAC,
            UnitMode::Integer,
        )
        .score(&fleet.config),
    };
    let ratio = weight_memory_reduction(&fleet.model.groups(), &fleet.config);
    (f64::from(ratio), f64::from(fp32 - acc) * 100.0)
}

fn latencies_ms(records: &[Record]) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter(|r| r.status == Status::Correct)
        .filter_map(|r| r.latency_s().map(|s| s * 1e3))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Plays one open-loop phase; returns its records and the CPU seconds the
/// serving stack (every thread but the generator's) spent meanwhile.
fn play_phase(fleet: &Fleet, plan: &Plan) -> Result<(Vec<Record>, f64), String> {
    let before = proc::process_cpu_s()?;
    let (records, client_cpu) = play(
        fleet.entry(),
        MODEL_ID,
        plan,
        &fleet.inputs,
        &fleet.oracles,
        Duration::from_secs(20),
    )?;
    Ok((records, proc::process_cpu_s()? - before - client_cpu))
}

fn tally(out: &mut Outcome, records: &[Record]) {
    out.attempted += records.len();
    out.failed += records
        .iter()
        .filter(|r| r.status != Status::Correct)
        .count();
    out.correct &= records.iter().all(|r| r.status != Status::WrongBits);
}

/// Times one extra set-up of a throwaway fleet, torn down at once.
fn timed_setup(spec: &Spec, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let fleet = set_up(spec, seed)?;
    let took = start.elapsed().as_secs_f64();
    fleet.shutdown();
    Ok(took)
}

/// Parts an untraced serving run is split into.
const PARTS: usize = 8;

/// The untraced run: the open-loop phase, split into [`PARTS`] parts
/// with timed throwaway set-ups after each, so the set-ups whose median
/// is `setup_s` are spread over the run. `cpu_ms_per_op` is the median
/// over the parts of each part's CPU time per request.
pub fn run(spec: &Spec, seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let start = Instant::now();
    let fleet = set_up(spec, seed)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let (mut records, mut cpu_per_req) = (Vec::new(), Vec::new());
    for part in 0..PARTS {
        let plan = Plan::poisson(seed, part as u64, spec.rate, seconds / PARTS as f64, POOL);
        let (r, cpu) = play_phase(&fleet, &plan)?;
        cpu_per_req.push(cpu / r.len().max(1) as f64);
        records.extend(r);
        while setup_s.len() < 1 + (part + 1) * setups.saturating_sub(1) / PARTS {
            setup_s.push(timed_setup(spec, seed)?);
        }
    }
    tally(&mut out, &records);
    let lat = latencies_ms(&records);
    let (mem_ratio, acc_drop) = quality(&fleet);
    fleet.shutdown();
    let pct = |q: f64| {
        stats::supported(&lat, q).map_or_else(|e| format!("n/a ({e})"), |v| format!("{v:.3} ms"))
    };
    out.note(format!(
        "open loop {} rps, latency from scheduled send to verified response over {} requests: p50 {}, p99 {}",
        spec.rate,
        lat.len(),
        pct(0.5),
        pct(0.99),
    ));
    out.setup(&setup_s);
    out.metric(
        "cpu_ms_per_op",
        stats::median(&cpu_per_req).expect("parts") * 1e3,
        "ms",
        records.len(),
    );
    out.metric("mem_ratio", mem_ratio, "x", 1);
    out.metric("acc_drop_pp", acc_drop, "pp", 1);
    out.metric("peak_rss_mb", proc::peak_rss_mb()?, "MB", 1);
    Ok(out)
}

fn span(t: &trace::Tracer, parent: u64, trace_id: u64, name: &str, a: Instant, b: Instant) -> Span {
    Span {
        id: t.new_id(),
        parent,
        trace: trace_id,
        name: name.to_string(),
        label: String::new(),
        size: 1,
        start_ns: t.at(a),
        end_ns: t.at(b),
    }
}

/// Records the request-scoped spans of an open-loop phase.
fn record_requests(t: &trace::Tracer, records: &[Record]) {
    for (i, r) in records.iter().enumerate() {
        let Some((arrived, verified)) = r.answered else {
            continue;
        };
        let trace_id = i as u64 + 1;
        let root = span(t, 0, trace_id, "request", r.due, verified);
        let id = root.id;
        t.record(root);
        t.record(span(
            t,
            id,
            trace_id,
            "loadgen.lag",
            r.due,
            r.sent.0.max(r.due),
        ));
        t.record(span(t, id, trace_id, "client.send", r.sent.0, r.sent.1));
        t.record(span(t, id, trace_id, "client.wait", r.sent.1, arrived));
        t.record(span(t, id, trace_id, "verify", arrived, verified));
    }
}

/// Records the replicas' counter deltas and latency windows.
fn record_server(t: &trace::Tracer, before: &[MetricsSnapshot], after: &[MetricsSnapshot]) {
    let (mut batches, mut samples, mut done) = (0u64, 0u64, 0u64);
    let (mut p50, mut p99, mut depth, mut rejected, mut bytes) = (0.0, 0.0f64, 0usize, 0u64, 0u64);
    for (b, a) in before.iter().zip(after) {
        for (i, (&x, &y)) in b.batch_histogram.iter().zip(&a.batch_histogram).enumerate() {
            batches += y - x;
            samples += (y - x) * (i as u64 + 1);
        }
        let completed = a.completed - b.completed;
        done += completed;
        p50 += a.latency_p50_us as f64 * completed as f64;
        p99 = p99.max(a.latency_p99_us as f64);
        depth = depth.max(a.max_queue_depth);
        rejected += (a.rejected_full + a.shed + a.expired + a.failed)
            - (b.rejected_full + b.shed + b.expired + b.failed);
        bytes += (a.bytes_in + a.bytes_out) - (b.bytes_in + b.bytes_out);
    }
    t.count("serve.batches", batches as f64);
    t.count("serve.batched_samples", samples as f64);
    t.count("serve.server_p50_ms", p50 / done.max(1) as f64 / 1e3);
    t.count("serve.server_p99_ms", p99 / 1e3);
    t.count("serve.max_queue_depth", depth as f64);
    t.count("serve.rejected", rejected as f64);
    t.count("serve.bytes", bytes as f64);
}

/// Records the router's counter deltas and latency window.
fn record_router(t: &trace::Tracer, before: &RouterSnapshot, after: &RouterSnapshot) {
    let backends = || before.backends.iter().zip(&after.backends);
    let sum = |f: fn(&qcn_router::BackendSnapshot) -> u64| -> f64 {
        backends().map(|(b, a)| f(a) - f(b)).sum::<u64>() as f64
    };
    let ok: Vec<u64> = backends().map(|(b, a)| a.ok - b.ok).collect();
    t.count("router.p50_ms", after.latency_p50_us as f64 / 1e3);
    t.count(
        "router.bytes",
        ((after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out)) as f64,
    );
    t.count(
        "router.balance_max_share",
        ok.iter().copied().max().unwrap_or(0) as f64 / ok.iter().sum::<u64>().max(1) as f64,
    );
    t.count("router.retries", sum(|b| b.retries));
    t.count("router.budget_denied", sum(|b| b.budget_exhausted));
    t.count("router.ejections", sum(|b| b.ejections));
}

/// The traced run: an untraced open-loop phase for the headline, then a
/// fresh fleet and the same phase with every span recorded. The headline
/// compared is the serving stack's CPU time per request.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let plan = Plan::poisson(seed, 0, spec.rate, seconds * 0.5, POOL);
    let fleet = set_up(spec, seed)?;
    let (records, untraced_cpu) = play_phase(&fleet, &plan)?;
    fleet.shutdown();
    tally(&mut out, &records);

    let t = trace::enable();
    let fleet = set_up(spec, seed)?;
    let servers: Vec<&Server> = fleet.replicas.iter().map(|r| r.server().as_ref()).collect();
    let before: Vec<MetricsSnapshot> = servers.iter().map(|s| s.metrics()).collect();
    let router_before = fleet.router.as_ref().map(Router::snapshot);
    let reg_before = Readings::now();
    let phase_start = t.now_ns();
    let (traced_records, traced_cpu) = play_phase(&fleet, &plan)?;
    let phase_end = t.now_ns();
    Readings::now().record_deltas(t, &reg_before);
    let after: Vec<MetricsSnapshot> = servers.iter().map(|s| s.metrics()).collect();
    if let (Some(b), Some(a)) = (router_before, fleet.router.as_ref().map(Router::snapshot)) {
        record_router(t, &b, &a);
    }
    record_server(t, &before, &after);
    record_requests(t, &traced_records);
    tally(&mut out, &traced_records);
    t.count("phase.start_ns", phase_start as f64);
    t.count("phase.end_ns", phase_end as f64);
    t.count("serve.replicas", spec.replicas as f64);
    t.count("serve.requests", traced_records.len() as f64);
    for (i, m) in model::stage_macs(&fleet.model).iter().enumerate() {
        t.count(&format!("model.macs.L{}", i + 1), *m as f64);
    }
    t.count("headline.untraced", untraced_cpu / records.len() as f64);
    t.count("headline.traced", traced_cpu / traced_records.len() as f64);
    fleet.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = input_pool(11);
        assert_eq!(a, input_pool(11));
        assert_ne!(a, input_pool(12));
        // Every pixel sits on the integer engine's input grid.
        let scale = f32::from(1u16 << IN_FRAC);
        assert!(a
            .iter()
            .flat_map(|x| x.data())
            .all(|v| (v * scale).fract() == 0.0));
    }
}
