//! Open-loop load generation against a multi-worker fleet.
//!
//! A closed-loop generator, where each client submits its next job only
//! after the previous one finishes, measures a server under
//! *self-limiting* load: latency spikes throttle the offered rate and hide
//! themselves. Tail percentiles under a fixed offered rate need
//! **open-loop** arrivals — jobs launch on a schedule computed before the
//! run starts, whether or not earlier jobs completed (the
//! coordinated-omission lesson). This is the crate's only load generator.
//!
//! [`loadgen_fleet`] precomputes a deterministic, seeded arrival schedule
//! ([`Arrival::Poisson`] or [`Arrival::Bursty`]), assigns jobs round-robin
//! across the fleet's worker addresses, and launches one submission thread
//! per job at its scheduled instant. Latency is measured from the
//! *scheduled* arrival, not the actual send, so queueing delay inside the
//! generator counts against the server — which is what a p99.9 claim is
//! supposed to mean. Per-worker utilization comes from the `busy_us` /
//! `uptime_us` deltas in each server's `stats` snapshot.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use turnpike_metrics::Histogram;

use crate::client::{Backoff, Client, Outcome};
use crate::json::Json;
use crate::proto::JobRequest;

/// Open-loop arrival process for [`loadgen_fleet`]. Both are seeded and
/// fully deterministic: the same config always produces the same schedule.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Memoryless arrivals at `rate_per_s`: exponential inter-arrival
    /// gaps via inverse-CDF sampling. The steady-state model.
    Poisson {
        /// Mean offered rate, jobs per second.
        rate_per_s: f64,
    },
    /// `burst` jobs back-to-back, then `idle_ms` of silence, repeated.
    /// The worst-case model: every burst slams the admission queue at
    /// once, probing rejection + retry behavior.
    Bursty {
        /// Jobs per burst.
        burst: usize,
        /// Quiet gap between bursts, milliseconds.
        idle_ms: u64,
    },
}

impl Arrival {
    /// Offsets from the run's start for `jobs` arrivals, nondecreasing.
    fn schedule(self, jobs: usize, seed: u64) -> Vec<Duration> {
        let mut out = Vec::with_capacity(jobs);
        match self {
            Arrival::Poisson { rate_per_s } => {
                let rate = rate_per_s.max(1e-9);
                let mut rng = seed;
                let mut t = 0.0f64;
                for _ in 0..jobs {
                    // Inverse CDF: gap = -ln(U)/λ with U in (0, 1].
                    let u = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                    t += -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate;
                    out.push(Duration::from_secs_f64(t));
                }
            }
            Arrival::Bursty { burst, idle_ms } => {
                let burst = burst.max(1);
                for i in 0..jobs {
                    out.push(Duration::from_millis((i / burst) as u64 * idle_ms));
                }
            }
        }
        out
    }

    /// Tag for the report block.
    pub fn name(self) -> &'static str {
        match self {
            Arrival::Poisson { .. } => "poisson",
            Arrival::Bursty { .. } => "bursty",
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters for one open-loop fleet run.
#[derive(Debug, Clone)]
pub struct FleetLoadgenConfig {
    /// Total jobs to offer across the fleet.
    pub jobs: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Schedule (and backoff jitter) seed.
    pub seed: u64,
    /// Template request; each arrival gets a unique `tag`.
    pub request: JobRequest,
    /// Give up on a job after this many `overloaded` retries.
    pub max_retries: usize,
}

/// One worker's share of a fleet run, from its `stats` deltas.
#[derive(Debug, Clone)]
pub struct WorkerLoad {
    /// The worker's address.
    pub addr: SocketAddr,
    /// Jobs this generator completed against this worker.
    pub completed: u64,
    /// Worker-pool busy time accrued during the run, microseconds.
    pub busy_us: u64,
    /// Server uptime elapsed during the run, microseconds.
    pub uptime_us: u64,
    /// The server's worker-thread count.
    pub workers: u64,
}

impl WorkerLoad {
    /// Fraction of the worker pool's capacity spent executing jobs during
    /// the run: `busy / (uptime × workers)`, clamped to `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.uptime_us.saturating_mul(self.workers.max(1));
        if capacity == 0 {
            return 0.0;
        }
        (self.busy_us as f64 / capacity as f64).clamp(0.0, 1.0)
    }
}

/// What an open-loop fleet run observed.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Jobs offered.
    pub jobs: usize,
    /// Jobs that reached `done`.
    pub completed: usize,
    /// Jobs that terminated in `error`/`shutting_down` or exhausted
    /// retries.
    pub errors: usize,
    /// `overloaded` rejections observed across all jobs.
    pub overloaded: u64,
    /// Schedule-to-done latency, microseconds (includes generator-side
    /// launch delay — coordinated omission is counted, not hidden).
    pub latency: Histogram,
    /// Wall-clock of the whole run, microseconds.
    pub wall_us: u64,
    /// Per-worker load, in `addrs` order.
    pub workers: Vec<WorkerLoad>,
}

impl FleetReport {
    /// Completed jobs per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.completed as f64 * 1.0e6 / self.wall_us as f64
    }

    /// Single-line JSON rendering with fixed key order.
    pub fn to_json(&self) -> String {
        let mut workers = String::from("[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                workers.push(',');
            }
            workers.push_str(&format!(
                "{{\"addr\":\"{}\",\"completed\":{},\"busy_us\":{},\"uptime_us\":{},\
                 \"workers\":{},\"utilization\":{:.4}}}",
                w.addr,
                w.completed,
                w.busy_us,
                w.uptime_us,
                w.workers,
                w.utilization(),
            ));
        }
        workers.push(']');
        format!(
            "{{\"jobs\":{},\"completed\":{},\"errors\":{},\"overloaded\":{},\"wall_us\":{},\
             \"throughput_jobs_per_s\":{:.3},\"latency_p50_us\":{},\"latency_p99_us\":{},\
             \"latency_p999_us\":{},\"latency_max_us\":{},\"per_worker\":{}}}",
            self.jobs,
            self.completed,
            self.errors,
            self.overloaded,
            self.wall_us,
            self.throughput(),
            self.latency.quantile(0.50).round() as u64,
            self.latency.quantile(0.99).round() as u64,
            self.latency.quantile(0.999).round() as u64,
            self.latency.max(),
            workers,
        )
    }
}

/// Read `(busy_us, uptime_us, workers)` from one server's stats snapshot.
fn load_sample(addr: SocketAddr) -> std::io::Result<(u64, u64, u64)> {
    let body = Client::connect(addr)?.stats()?;
    let v = Json::parse(&body).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad stats: {e}"))
    })?;
    let field = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok((field("busy_us"), field("uptime_us"), field("workers")))
}

struct FleetTally {
    completed: usize,
    errors: usize,
    overloaded: u64,
    per_worker_completed: Vec<u64>,
    latency: Histogram,
}

/// Offer `cfg.jobs` jobs to the fleet at `addrs` on the precomputed
/// open-loop schedule, round-robin across workers, and report tail latency
/// plus per-worker utilization.
///
/// # Errors
///
/// Propagates failures to sample any worker's stats (before or after the
/// run); per-job connection and submission failures are tallied as errors,
/// not raised.
///
/// # Panics
///
/// Panics if `addrs` is empty.
pub fn loadgen_fleet(
    addrs: &[SocketAddr],
    cfg: &FleetLoadgenConfig,
) -> std::io::Result<FleetReport> {
    assert!(!addrs.is_empty(), "need at least one worker address");
    let schedule = cfg.arrival.schedule(cfg.jobs, cfg.seed);
    let before: Vec<(u64, u64, u64)> = addrs
        .iter()
        .map(|&a| load_sample(a))
        .collect::<std::io::Result<_>>()?;

    let tally = Mutex::new(FleetTally {
        completed: 0,
        errors: 0,
        overloaded: 0,
        per_worker_completed: vec![0; addrs.len()],
        latency: Histogram::new(),
    });
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (i, &offset) in schedule.iter().enumerate() {
            let tally = &tally;
            let worker_idx = i % addrs.len();
            let addr = addrs[worker_idx];
            let mut req = cfg.request.clone();
            req.tag = format!("fleet-{i}");
            let seed = cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            scope.spawn(move || {
                // Open loop: hold until the scheduled instant regardless of
                // what every other job is doing.
                let until = started + offset;
                let now = Instant::now();
                if until > now {
                    std::thread::sleep(until - now);
                }
                let mut backoff = Backoff::new(1, 1_000, seed);
                let outcome = (|| -> std::io::Result<bool> {
                    let mut client = Client::connect(addr)?;
                    let mut retries = 0usize;
                    loop {
                        match client.submit(&req)? {
                            Outcome::Done { .. } => return Ok(true),
                            Outcome::Overloaded { retry_after_ms } => {
                                tally.lock().unwrap().overloaded += 1;
                                retries += 1;
                                if retries > cfg.max_retries {
                                    return Ok(false);
                                }
                                std::thread::sleep(backoff.next_delay(retry_after_ms));
                            }
                            Outcome::ShuttingDown | Outcome::Error { .. } => return Ok(false),
                        }
                    }
                })();
                // Latency from the *scheduled* arrival: generator launch
                // delay counts against the tail, never hides in it.
                let us = started.elapsed().saturating_sub(offset).as_micros() as u64;
                let mut t = tally.lock().unwrap();
                match outcome {
                    Ok(true) => {
                        t.completed += 1;
                        t.per_worker_completed[worker_idx] += 1;
                        t.latency.record(us);
                    }
                    Ok(false) | Err(_) => t.errors += 1,
                }
            });
        }
    });
    let wall_us = started.elapsed().as_micros() as u64;

    let after: Vec<(u64, u64, u64)> = addrs
        .iter()
        .map(|&a| load_sample(a))
        .collect::<std::io::Result<_>>()?;
    let tally = tally.into_inner().unwrap();
    let workers = addrs
        .iter()
        .zip(before.iter().zip(&after))
        .enumerate()
        .map(
            |(i, (&addr, (&(b_busy, b_up, _), &(a_busy, a_up, n))))| WorkerLoad {
                addr,
                completed: tally.per_worker_completed[i],
                busy_us: a_busy.saturating_sub(b_busy),
                uptime_us: a_up.saturating_sub(b_up),
                workers: n,
            },
        )
        .collect();

    Ok(FleetReport {
        jobs: cfg.jobs,
        completed: tally.completed,
        errors: tally.errors,
        overloaded: tally.overloaded,
        latency: tally.latency,
        wall_us,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_and_matches_the_rate() {
        let a = Arrival::Poisson { rate_per_s: 100.0 };
        let s1 = a.schedule(500, 9);
        let s2 = a.schedule(500, 9);
        assert_eq!(s1, s2, "same seed, same schedule");
        assert_ne!(s1, a.schedule(500, 10), "seed matters");
        assert!(s1.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
        // 500 arrivals at 100/s ≈ 5s of schedule; allow wide slack, the
        // point is the right order of magnitude, not a statistics test.
        let total = s1.last().unwrap().as_secs_f64();
        assert!((2.5..10.0).contains(&total), "total span {total}s");
    }

    #[test]
    fn bursty_schedule_groups_arrivals_and_spaces_bursts() {
        let a = Arrival::Bursty {
            burst: 4,
            idle_ms: 50,
        };
        let s = a.schedule(10, 0);
        assert_eq!(s[0..4], [Duration::ZERO; 4], "first burst is immediate");
        assert!(s[4..8].iter().all(|&d| d == Duration::from_millis(50)));
        assert!(s[8..10].iter().all(|&d| d == Duration::from_millis(100)));
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let w = WorkerLoad {
            addr: "127.0.0.1:1".parse().unwrap(),
            completed: 10,
            busy_us: 500_000,
            uptime_us: 1_000_000,
            workers: 2,
        };
        assert!((w.utilization() - 0.25).abs() < 1e-9);
        let idle = WorkerLoad {
            uptime_us: 0,
            ..w.clone()
        };
        assert_eq!(idle.utilization(), 0.0, "no capacity, no utilization");
    }
}
