//! Seeded open-loop load: Poisson arrival schedules, and a two-thread
//! generator that sends each request at its scheduled time over one
//! connection regardless of outstanding responses, and verifies every
//! response against its oracle.

use crate::proc::thread_cpu_s;
use qcn_serve::wire::{decode_response, encode_request, read_frame, write_frame, WireRequest};
use qcn_tensor::Tensor;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// splitmix64: a small seeded generator, so schedules depend only on the
/// seed and this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One open-loop phase: when each request is due and which pooled input
/// it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Due times, seconds after the phase starts, ascending.
    pub due_s: Vec<f64>,
    /// Index into the input pool for each request.
    pub picks: Vec<usize>,
}

impl Plan {
    /// Poisson arrivals at `rate` for `duration_s`, inputs drawn uniformly
    /// from a pool of `pool` — a pure function of its arguments.
    pub fn poisson(seed: u64, stream: u64, rate: f64, duration_s: f64, pool: usize) -> Plan {
        let mut rng = Rng::new(seed, stream);
        let (mut due_s, mut picks) = (Vec::new(), Vec::new());
        let mut t = 0.0;
        loop {
            t += -rng.unit().ln() / rate;
            if t >= duration_s {
                break;
            }
            due_s.push(t);
            picks.push(rng.below(pool));
        }
        Plan { rate, due_s, picks }
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered with exactly the oracle's bits.
    Correct,
    /// Answered with a tensor whose bits differ from the oracle's.
    WrongBits,
    /// Answered with a typed error (refused, expired, failed).
    Error,
    /// Never answered.
    Lost,
}

/// What happened to one request. Instants are absolute.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the request was due.
    pub due: Instant,
    /// When the generator began and finished writing it.
    pub sent: (Instant, Instant),
    /// When its response arrived and when verifying it finished; `None`
    /// when no response arrived.
    pub answered: Option<(Instant, Instant)>,
    /// How it ended.
    pub status: Status,
}

impl Record {
    /// Seconds from the scheduled send to the verified response.
    pub fn latency_s(&self) -> Option<f64> {
        self.answered
            .map(|(_, done)| done.saturating_duration_since(self.due).as_secs_f64())
    }
}

/// Bit patterns of a tensor, for exact comparison.
pub fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Plays `plan` against the wire endpoint at `addr` (model id `model`),
/// checking each response against `oracles[pick]`. A response that never
/// arrives within `patience` of the last send ends the phase with the
/// rest unanswered. Also returns the CPU seconds the generator's own two
/// threads used, so callers can leave the client out of the system's cost.
pub fn play(
    addr: SocketAddr,
    model: &str,
    plan: &Plan,
    inputs: &[Tensor],
    oracles: &[Vec<u32>],
    patience: Duration,
) -> Result<(Vec<Record>, f64), String> {
    let io = |e: std::io::Error| format!("open-loop connection to {addr}: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(patience)).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = BufWriter::new(stream);
    let n = plan.due_s.len();
    let start = Instant::now() + Duration::from_millis(1);
    let due: Vec<Instant> = plan
        .due_s
        .iter()
        .map(|&s| start + Duration::from_secs_f64(s))
        .collect();
    let (sent, answers, client_cpu) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let cpu0 = thread_cpu_s();
            let mut answers: Vec<Option<(Instant, Instant, Status)>> = vec![None; n];
            for _ in 0..n {
                let Ok(Some(frame)) = read_frame(&mut reader) else {
                    break;
                };
                let arrived = Instant::now();
                let Ok(resp) = decode_response(&frame) else {
                    break;
                };
                let Some(i) = (resp.id as usize).checked_sub(1).filter(|&i| i < n) else {
                    break;
                };
                let status = match &resp.result {
                    Ok(t) if bits(t) == oracles[plan.picks[i]] => Status::Correct,
                    Ok(_) => Status::WrongBits,
                    Err(_) => Status::Error,
                };
                answers[i] = Some((arrived, Instant::now(), status));
            }
            (answers, cpu_since(cpu0))
        });
        let cpu0 = thread_cpu_s();
        let mut sent = Vec::with_capacity(n);
        for (i, &when) in due.iter().enumerate() {
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            let begin = Instant::now();
            let payload = encode_request(&WireRequest {
                id: i as u64 + 1,
                model: model.to_string(),
                input: inputs[plan.picks[i]].clone(),
            });
            let ok = write_frame(&mut writer, &payload).is_ok() && writer.flush().is_ok();
            sent.push((begin, Instant::now()));
            if !ok {
                break;
            }
        }
        // After a failed write the receiver gives up once `patience`
        // passes without a frame.
        let sender_cpu = cpu_since(cpu0);
        let (answers, receiver_cpu) = receiver.join().expect("receiver thread panicked");
        (
            sent,
            answers,
            sender_cpu.and_then(|a| receiver_cpu.map(|b| a + b)),
        )
    });
    let records = due
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let answer = answers[i];
            Record {
                due,
                sent: sent.get(i).copied().unwrap_or((due, due)),
                answered: answer.map(|(a, d, _)| (a, d)),
                status: answer.map_or(Status::Lost, |(_, _, s)| s),
            }
        })
        .collect();
    Ok((records, client_cpu?))
}

fn cpu_since(start: Result<f64, String>) -> Result<f64, String> {
    Ok(thread_cpu_s()? - start?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_inputs() {
        let a = Plan::poisson(7, 1, 300.0, 2.0, 64);
        let b = Plan::poisson(7, 1, 300.0, 2.0, 64);
        assert_eq!(a, b);
        assert_ne!(a, Plan::poisson(8, 1, 300.0, 2.0, 64));
        assert_ne!(a, Plan::poisson(7, 2, 300.0, 2.0, 64));
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let p = Plan::poisson(3, 0, 500.0, 20.0, 16);
        let n = p.due_s.len() as f64;
        // 10 000 expected arrivals: ±4 % is > 4 standard deviations.
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(p.due_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(p.due_s.iter().all(|&t| (0.0..20.0).contains(&t)));
        assert!(p.picks.iter().all(|&i| i < 16));
        let mut seen = [false; 16];
        p.picks.iter().for_each(|&i| seen[i] = true);
        assert!(seen.iter().all(|&s| s));
    }
}
