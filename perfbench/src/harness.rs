//! Measurement plumbing shared by every workload: the timed op loop,
//! process CPU and peak-RSS probes, quantiles, the benchmark's own seed
//! mixer, and the metric record the report prints.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the op loop runs.
    pub seconds: f64,
    /// Self-check sizes: every input shrunk so a pass takes well under a
    /// second.
    pub tiny: bool,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload reports: op tallies, its end-to-end metrics (untraced
/// run) or per-layer figures by name (traced run), and human-readable
/// context lines printed above the result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records an output check; a failed check fails `ops` ops.
    pub fn check(&mut self, what: &str, ok: bool, ops: u64) {
        if !ok {
            self.failed += ops;
        }
        self.notes.push(format!(
            "check {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
    }
}

/// A timed op loop's raw record.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Wall time of every op that returned, in ms.
    pub lat_ms: Vec<f64>,
    /// Process CPU time per op, in ms: of every op that returned, or on
    /// `service_mix` of every window of misses.
    pub cpu_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Replications (campaigns, or splitting segments) the ops executed.
    pub reps: u64,
    /// Wall time from the first op's start to the last op's end.
    pub wall_s: f64,
    /// Process CPU (user + system, every thread) over the same span.
    pub cpu_s: f64,
}

/// Runs `op(i)` back to back until `seconds` have passed, at least
/// `min_ops` times. `op` returns its output and the replications it ran;
/// an `Err` or a panic fails the op. Each output goes to `keep` after
/// the op's clocks stop, so sampling outputs for later checks costs the
/// op nothing; `between` runs after `keep`, outside every op's clocks.
pub fn run_ops<T>(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64) -> Result<(T, u64), String>,
    mut keep: impl FnMut(u64, T),
    mut between: impl FnMut(),
) -> LoopStats {
    let mut stats = LoopStats::default();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    while stats.attempted < min_ops || start.elapsed().as_secs_f64() < seconds {
        let i = stats.attempted;
        stats.attempted += 1;
        let cpu = cpu_seconds();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| op(i)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (cpu_seconds() - cpu) * 1e3;
        match result {
            Ok(Ok((out, reps))) => {
                stats.lat_ms.push(ms);
                stats.cpu_ms.push(cpu_ms);
                stats.reps += reps;
                keep(i, out);
            }
            Ok(Err(err)) => {
                stats.failed += 1;
                eprintln!("op {i} failed: {err}");
            }
            Err(_) => stats.failed += 1,
        }
        between();
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.cpu_s = cpu_seconds() - cpu0;
    stats
}

/// Set-up timing: rounds of `per_round` back-to-back calls, each round
/// counting the process CPU time per call, so a set-up that costs
/// microseconds is not swamped by the clock's own cost. Rounds can be
/// taken before the timed loop or between its ops.
#[derive(Debug)]
pub struct SetupClock {
    per_round: usize,
    settle: Duration,
    seconds: Vec<f64>,
}

impl SetupClock {
    pub fn new(per_round: usize) -> Self {
        Self {
            per_round: per_round.max(1),
            settle: Duration::ZERO,
            seconds: Vec::new(),
        }
    }

    /// Keeps each round's clock running for `settle` after the last call
    /// returns, so threads a constructor starts finish their own start-up
    /// inside the clock rather than racing it. Sleeping costs no CPU.
    pub fn settling(mut self, settle: Duration) -> Self {
        self.settle = settle;
        self
    }

    /// Times one round and returns the last value built; the others are
    /// dropped outside the clock.
    pub fn round<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut built: Vec<T> = Vec::with_capacity(self.per_round);
        let cpu0 = cpu_seconds();
        for _ in 0..self.per_round {
            built.push(setup());
        }
        if !self.settle.is_zero() {
            std::thread::sleep(self.settle);
        }
        let cpu = cpu_seconds() - cpu0;
        self.seconds.push(cpu / self.per_round as f64);
        built.pop().expect("at least one set-up call")
    }

    /// Times `n` rounds and returns the last value built, dropping each
    /// round's value before the next round starts.
    pub fn repeat<T>(&mut self, n: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = self.round(&mut setup);
        for _ in 1..n {
            drop(last);
            last = self.round(&mut setup);
        }
        last
    }

    /// Rounds timed so far.
    pub fn rounds(&self) -> usize {
        self.seconds.len()
    }

    /// `setup_s`: the median of the rounds' CPU per call.
    pub fn setup_s(&self) -> f64 {
        quantile(&self.seconds, 0.5)
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The end-to-end metrics every workload reports, in contract order, and
/// the wall-clock figures printed beside them. The ops are those in
/// `stats.lat_ms`, named `ops` in the notes: every op that returned, or
/// on `service_mix` every miss.
///
/// `op_min_ms` is the least of `stats.lat_ms`. Every op of a run does
/// the same work, and the rest of a shared host only ever adds time to
/// an op, never takes it away, so the fastest op is the best estimate of
/// what the code costs; a median or a mean also measures how busy the
/// host was. When the host's load came and went within runs, the
/// per-run median, p25 and p10 of `doe_sweep`'s op CPU time each spread
/// 0.15–0.30 (IQR ÷ median over five runs) and its minimum 0.10.
pub fn end_to_end(out: &mut Outcome, ops: &str, setup: &SetupClock, stats: &LoopStats) {
    out.attempted += stats.attempted;
    out.failed += stats.failed;
    let count = stats.lat_ms.len().max(1) as f64;
    out.push("setup_s", setup.setup_s(), "s");
    out.push("op_min_ms", quantile(&stats.lat_ms, 0.0), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.notes.push(format!(
        "set-up: {} rounds, p10 {:.3e} s, p50 {:.3e} s, p90 {:.3e} s per call",
        setup.rounds(),
        quantile(&setup.seconds, 0.1),
        quantile(&setup.seconds, 0.5),
        quantile(&setup.seconds, 0.9)
    ));
    out.notes.push(format!(
        "wall time per {}; min {:.3} ms",
        latency_note(ops, &stats.lat_ms),
        quantile(&stats.lat_ms, 0.0)
    ));
    out.notes.push(format!(
        "cpu time per {}; min {:.3} ms, loop mean {:.3} ms",
        latency_note(ops, &stats.cpu_ms),
        quantile(&stats.cpu_ms, 0.0),
        stats.cpu_s * 1e3 / count
    ));
    out.notes.push(format!(
        "replications_per_s = {} (wall: {} replications in {:.3} s)",
        stats.reps as f64 / stats.wall_s,
        stats.reps,
        stats.wall_s
    ));
}

/// Appends `op_ok_ratio` once every check has had its say.
pub fn finish_end_to_end(out: &mut Outcome) {
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!(
        "op_error_ratio = {} ({} of {} ops failed)",
        1.0 - ok,
        out.failed,
        out.attempted
    ));
    out.push("op_ok_ratio", ok, "ratio");
}

/// A latency summary line: p10, p25, median, p90 and the sample count.
pub fn latency_note(label: &str, lat_ms: &[f64]) -> String {
    format!(
        "{label}: p10 {:.3} ms, p25 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, n = {} ({} beyond p90)",
        quantile(lat_ms, 0.1),
        quantile(lat_ms, 0.25),
        quantile(lat_ms, 0.5),
        quantile(lat_ms, 0.9),
        lat_ms.len(),
        lat_ms.len() / 10
    )
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Where a run executes.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPUs the process could use when it started.
    pub nproc: usize,
    /// The one CPU it is pinned to, if pinning succeeded.
    pub cpu: Option<usize>,
    /// Threads the default executor spawns per round.
    pub executor_threads: usize,
}

/// Pins the process to the CPU it is running on (the scheduler's pick,
/// so two processes started together tend to land apart), first fixing
/// the default executor's thread count (`RAYON_NUM_THREADS`, unless
/// already set) at the unpinned `nproc`, so the shipped executor still
/// spawns as many threads per round as it would unpinned. Call it before
/// any thread starts: threads inherit the mask.
///
/// On a shared host two vCPUs are not two independent cores: when both
/// run, each runs slower, and how often both run depends on the other
/// tenants. Unpinned, the parallel executor's CPU time per `doe_sweep`
/// op ranged 22–42 ms within one run, more than twice its pinned cost,
/// with the mix set by the host, not the code. On one CPU the executor's
/// threads take turns, so CPU time counts the work, the spawns and the
/// switches between them.
pub fn pin_to_one_cpu() -> Placement {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let preset = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let executor_threads = preset.unwrap_or_else(|| {
        std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
        nproc
    });
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok();
    let cpu = cpu.filter(|&c| c < 1024).filter(|&c| {
        let mut one: CpuSet = [0; 16];
        one[c / 64] = 1 << (c % 64);
        // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and its
        // size is passed alongside; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
    });
    Placement {
        nproc,
        cpu,
        executor_threads,
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (every thread, live or
/// exited), in seconds.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for this
    // platform's layout, and the clock id is one the kernel always
    // accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process image so far (`VmHWM` of
/// `/proc/self/status`), in MiB. `getrusage`'s `ru_maxrss` would not do:
/// it keeps the peak of the parent that forked and exec'd us.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark derives every input seed with its own mixer,
/// so a change to the library's RNG never changes the workloads.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bit-identity through `Debug`: Rust prints every `f64` as its
/// shortest round-trip form, so equal renderings mean equal bits.
pub fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
