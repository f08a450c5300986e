//! Outside-in tracing: spans the benchmark records around its own calls
//! into each layer's public functions. Nothing here reaches inside the
//! library — a span covers exactly one public call (or one call of a
//! closure or trait method the library invokes on the benchmark's
//! behalf: an executor task, a workspace `init`, a collector fold, a
//! splitting segment).
//!
//! Spans live in memory until the traced op ends, when
//! [`LayerStats::add_op`] folds them into per-layer figures.

use diversify_des::exec::{Collector, Executor, Replication, ReplicationPlan};
use diversify_des::splitting::{LevelRun, StagedTask};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The layer boundary a span sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ScopeSystem::build` / `FleetSystem::build`.
    Build,
    /// Network clone plus `DiversityConfig::apply` or `apply_placement`.
    Apply,
    /// `CampaignSimulator::new`.
    SimNew,
    /// One `Executor::run_ws` call.
    Exec,
    /// One workspace `init` call made by the executor.
    Workspace,
    /// One executor task: `CampaignSimulator::run_into`.
    Task,
    /// One collector call: `accumulate`, `merge` or `finish`.
    Fold,
    /// One design point of the DoE replay: build + simulator + run.
    Point,
    /// `Pipeline::try_assess`.
    Assess,
    /// One `Splitting::run` call.
    Split,
    /// One `StagedTask::run_level` segment.
    Segment,
    /// One `IndicatorService::request`, seen from its client.
    Request,
}

/// One recorded call: its layer, the thread it ran on, and its interval
/// in nanoseconds since the trace epoch. Traced runs drain the recorder
/// around every traced op, so one drain holds exactly one op's spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on (traced runs) or off (untraced runs, where a
/// span costs one relaxed load).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start = now_ns();
    let out = f();
    let end = now_ns();
    let span = Span {
        layer,
        thread: THREAD.with(|t| *t),
        start,
        end,
    };
    SPANS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// [`Executor::run_ws`] with a span around the call and around every
/// workspace `init`, task and collector call the executor makes.
pub fn run_ws<W, T, I, F, C>(
    executor: &Executor,
    plan: &ReplicationPlan,
    init: I,
    task: F,
    collector: &C,
) -> C::Output
where
    W: Send,
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, Replication) -> T + Sync + Send,
    C: Collector<T>,
{
    span(Layer::Exec, || {
        executor.run_ws(
            plan,
            || span(Layer::Workspace, &init),
            |ws, rep| span(Layer::Task, || task(ws, rep)),
            &TracedCollector(collector),
        )
    })
}

/// A collector that spans every call into the collector it wraps.
struct TracedCollector<'c, C>(&'c C);

impl<T, C: Collector<T>> Collector<T> for TracedCollector<'_, C> {
    type Accum = C::Accum;
    type Output = C::Output;

    fn empty(&self) -> C::Accum {
        self.0.empty()
    }

    fn accumulate(&self, plan: &ReplicationPlan, acc: &mut C::Accum, rep: Replication, value: T) {
        span(Layer::Fold, || self.0.accumulate(plan, acc, rep, value));
    }

    fn merge(&self, into: &mut C::Accum, other: C::Accum) {
        span(Layer::Fold, || self.0.merge(into, other));
    }

    fn finish(&self, plan: &ReplicationPlan, acc: C::Accum) -> C::Output {
        span(Layer::Fold, || self.0.finish(plan, acc))
    }
}

/// A staged splitting task that spans every workspace and segment call
/// into the task it wraps.
pub struct TracedStaged<'t, T>(pub &'t T);

impl<T: StagedTask> StagedTask for TracedStaged<'_, T> {
    type State = T::State;
    type Workspace = T::Workspace;

    fn levels(&self) -> usize {
        self.0.levels()
    }

    fn workspace(&self) -> T::Workspace {
        span(Layer::Workspace, || self.0.workspace())
    }

    fn run_level(
        &self,
        ws: &mut T::Workspace,
        level: usize,
        from: Option<&T::State>,
        seed: u64,
    ) -> LevelRun<T::State> {
        span(Layer::Segment, || self.0.run_level(ws, level, from, seed))
    }
}

/// Length of the union of `children`'s intervals, clipped to `parent`.
fn covered_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-layer figures folded from traced ops.
#[derive(Debug, Default)]
pub struct LayerStats {
    ops: u64,
    durations: BTreeMap<&'static str, Vec<f64>>,
    tasks: u64,
    rounds: u64,
    threads: u64,
    workspaces: u64,
    fold_ns: u64,
    exec_self_ns: u64,
    points: u64,
}

/// The per-layer metric each span layer's median duration reports, with
/// the factor that converts nanoseconds to its unit.
fn duration_metric(layer: Layer) -> Option<(&'static str, f64)> {
    Some(match layer {
        Layer::Build => ("scada.build_ms", 1e-6),
        Layer::Apply => ("diversity.apply_ms", 1e-6),
        Layer::SimNew => ("campaign.new_ms", 1e-6),
        Layer::Task => ("campaign.rep_us", 1e-3),
        Layer::Point => ("pipeline.point_ms", 1e-6),
        Layer::Assess => ("anova.assess_ms", 1e-6),
        Layer::Segment => ("splitting.segment_us", 1e-3),
        Layer::Exec | Layer::Workspace | Layer::Fold | Layer::Split | Layer::Request => {
            return None
        }
    })
}

impl LayerStats {
    /// Folds the durations of single calls — plant builds, simulators,
    /// tasks, segments — whether from set-up or from an op.
    pub fn add_durations(&mut self, spans: &[Span]) {
        for s in spans {
            if let Some((name, scale)) = duration_metric(s.layer) {
                self.durations
                    .entry(name)
                    .or_default()
                    .push(s.ns() as f64 * scale);
            }
        }
    }

    /// Folds one traced op's spans; `rounds` is the executor rounds the
    /// op ran (batches per `run_ws`, summed; one per splitting level).
    pub fn add_op(&mut self, spans: &[Span], rounds: u64) {
        self.ops += 1;
        self.rounds += rounds;
        self.add_durations(spans);
        let mut threads = BTreeSet::new();
        for s in spans {
            match s.layer {
                Layer::Task | Layer::Segment => {
                    self.tasks += u64::from(s.layer == Layer::Task);
                    threads.insert(s.thread);
                }
                Layer::Workspace => {
                    self.workspaces += 1;
                    threads.insert(s.thread);
                }
                Layer::Fold => self.fold_ns += s.ns(),
                Layer::Point => self.points += 1,
                _ => {}
            }
        }
        self.threads += threads.len() as u64;
        // An executor call's self time: its span minus the part its
        // children (tasks, segments, workspace inits, folds) cover.
        for parent in spans
            .iter()
            .filter(|s| matches!(s.layer, Layer::Exec | Layer::Split))
        {
            let children: Vec<&Span> = spans
                .iter()
                .filter(|c| {
                    matches!(
                        c.layer,
                        Layer::Task | Layer::Segment | Layer::Workspace | Layer::Fold
                    ) && c.start >= parent.start
                        && c.end <= parent.end
                })
                .collect();
            self.exec_self_ns += parent.ns() - covered_ns(parent, &children);
        }
    }

    /// Writes every figure these spans support into `out`.
    pub fn emit(&self, out: &mut BTreeMap<&'static str, f64>) {
        for (name, values) in &self.durations {
            out.insert(name, crate::harness::quantile(values, 0.5));
        }
        if self.ops == 0 {
            return;
        }
        let per_op = |n: u64| n as f64 / self.ops as f64;
        if self.rounds > 0 {
            out.insert(
                "exec.self_us_per_round",
                self.exec_self_ns as f64 * 1e-3 / self.rounds as f64,
            );
            out.insert("exec.rounds", per_op(self.rounds));
            out.insert("exec.threads", per_op(self.threads));
            out.insert("exec.workspaces", per_op(self.workspaces));
        }
        if self.tasks > 0 {
            out.insert("campaign.reps", per_op(self.tasks));
            out.insert(
                "indicators.fold_us_per_rep",
                self.fold_ns as f64 * 1e-3 / self.tasks as f64,
            );
        }
        if self.points > 0 {
            out.insert("pipeline.points", per_op(self.points));
        }
    }
}
