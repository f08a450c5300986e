//! Allocation-regression guard for the replication hot loops.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each
//! test warms a workload up (first pass sizes every reusable buffer),
//! then re-runs the *same* seeds and asserts the allocation counter did
//! not move. Identical seeds produce identical trajectories, so any
//! steady-state allocation — a buffer that is reallocated instead of
//! reused, a collection that grows past its warm-up size — shows up as
//! a non-zero delta.
//!
//! The counters are per thread, and every case runs its measured work
//! on the test's own thread (the serial executor and the SAN solvers
//! never spawn), so allocations made by the test harness or by sibling
//! tests running in parallel never land inside a measured window. Next
//! to the allocation count, a byte counter bounds the memory one-off
//! set-up asks for (`CampaignSimulator::new`'s tables).
//!
//! The loops under guard are the ones the tentpole made allocation-free:
//! the campaign simulator driven through a reused
//! [`CampaignWorkspace`], and the SAN simulator driven through a
//! recycled [`SimState`].

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{
    CampaignConfig, CampaignSimulator, CampaignWorkspace, ThreatModel,
};
use diversify::attack::to_san::compile_network_campaign;
use diversify::des::SimTime;
use diversify::san::{FiringDistribution, SanBuilder, SanModel, SimState, Simulator};
use diversify::scada::network::ScadaNetwork;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts every allocation and reallocation routed through the global
/// allocator, and the bytes each one requests, per thread.
/// Deallocations are not counted: the property under test is "no new
/// memory is requested", which `alloc`/`realloc` alone witness.
struct CountingAllocator;

thread_local! {
    /// `const`-initialised and free of destructors, so touching them
    /// from inside the allocator never allocates or registers a
    /// destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static REQUESTED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    // `try_with` only fails during thread teardown, when nothing is
    // being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = REQUESTED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is
// bumping a thread-local counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread's allocations and reallocations have asked
/// for so far (a reallocation counts its whole new size).
fn requested_bytes() -> u64 {
    REQUESTED_BYTES.with(Cell::get)
}

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

/// The campaign hot loop: after one warm-up pass over the seed set, a
/// second pass over the same seeds through the same workspace must not
/// allocate at all.
#[test]
fn campaign_replications_are_allocation_free_after_warmup() {
    let net = scope_network();
    let seeds: Vec<u64> = (0..25).collect();
    for threat in [ThreatModel::stuxnet_like(), ThreatModel::duqu_like()] {
        let sim = CampaignSimulator::new(&net, threat, CampaignConfig::default());
        let mut ws = sim.workspace();
        for &seed in &seeds {
            black_box(sim.run_into(&mut ws, seed));
        }
        let before = allocations();
        for &seed in &seeds {
            black_box(sim.run_into(&mut ws, seed));
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "campaign loop allocated {delta} times across {} warm replications",
            seeds.len()
        );
    }
}

/// A fresh (default-constructed) workspace reaches the allocation-free
/// steady state too — sizing is part of warm-up, not of the loop.
#[test]
fn lazily_sized_workspace_stops_allocating_once_warm() {
    let net = scope_network();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let mut ws = CampaignWorkspace::new();
    for seed in 0..10u64 {
        black_box(sim.run_into(&mut ws, seed));
    }
    let before = allocations();
    for seed in 0..10u64 {
        black_box(sim.run_into(&mut ws, seed));
    }
    assert_eq!(allocations() - before, 0);
}

/// The frontier engine at fleet scale: on a generated 10^4-node plant
/// family, replications through a warm workspace stay allocation-free —
/// the sparse reset and the hierarchical-bitset frontier never touch
/// the allocator once sized.
#[test]
fn fleet_scale_campaign_is_allocation_free_after_warmup() {
    use diversify::scada::fleet::{FleetConfig, FleetSystem};
    let fleet = FleetSystem::build(&FleetConfig::sized(10_000, 0xA110C));
    let sim = CampaignSimulator::new(
        fleet.network(),
        ThreatModel::stuxnet_like(),
        CampaignConfig::default(),
    );
    let mut ws = sim.workspace();
    let seeds: Vec<u64> = (0..5).collect();
    for &seed in &seeds {
        black_box(sim.run_into(&mut ws, seed));
    }
    let before = allocations();
    for &seed in &seeds {
        black_box(sim.run_into(&mut ws, seed));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "fleet-scale campaign loop allocated {delta} times after warm-up"
    );
}

/// Building a fleet writes every node name into the plant's one name
/// buffer, so no node costs an allocation of its own: a `String` per
/// name would cost at least one allocation each.
#[test]
fn fleet_build_does_not_allocate_per_node() {
    use diversify::scada::fleet::{FleetConfig, FleetSystem};
    let config = FleetConfig::sized(20_000, 0xA110C);
    let before = allocations();
    let fleet = FleetSystem::build(&config);
    let delta = allocations() - before;
    let nodes = fleet.network().node_count() as u64;
    assert!(
        delta < nodes / 4,
        "building a {nodes}-node fleet allocated {delta} times"
    );
}

/// `FleetSystem::build` sizes the plant's name bytes, name ends,
/// roles, zones and links once from its configuration, so a build
/// allocates a fixed number of times at any fleet size; growing the
/// buffers as nodes arrive took 75 and 91 allocations here.
#[test]
fn fleet_build_allocations_do_not_grow_with_the_fleet() {
    use diversify::scada::fleet::{FleetConfig, FleetSystem};
    for target in [20_000, 200_000] {
        let config = FleetConfig::sized(target, 0xA110C);
        let before = allocations();
        let fleet = FleetSystem::build(&config);
        let delta = allocations() - before;
        assert!(
            delta <= 16,
            "building a {}-node fleet allocated {delta} times",
            fleet.network().node_count()
        );
    }
}

/// The simulator's probability tables hold one entry per node class
/// and a 2-byte class index per node, so on a network whose CSR
/// topology is already built, `CampaignSimulator::new` asks for fewer
/// than 4 bytes per node; an entry per node would cost 40.
#[test]
fn simulator_tables_cost_under_four_bytes_per_node() {
    use diversify::diversity::config::DiversityConfig;
    use diversify::scada::fleet::{FleetConfig, FleetSystem};
    let mut net = FleetSystem::build(&FleetConfig::sized(21_000, 0xA110C))
        .network()
        .clone();
    DiversityConfig::full_rotation().apply(&mut net);
    black_box(net.topology());
    let before = requested_bytes();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let bytes = requested_bytes() - before;
    black_box(&sim);
    let nodes = net.node_count() as u64;
    assert!(
        bytes < 4 * nodes,
        "CampaignSimulator::new asked for {bytes} bytes on a {nodes}-node fleet"
    );
}

/// `grab` takes a pool token through an input gate, `finish` releases
/// it through an output gate, and the instantaneous `recycle` turns
/// three finished tokens back into two pool tokens mid-run.
fn conservative_gate_model() -> SanModel {
    let mut b = SanBuilder::new();
    let pool = b.place("pool", 6);
    let busy = b.place("busy", 0);
    let done = b.place("done", 0);
    b.timed_activity("grab", FiringDistribution::Exponential { rate: 2.0 })
        .input_gate(
            move |m| m.tokens(pool) > 0 && m.tokens(busy) < 2,
            move |m| {
                m.remove_tokens(pool, 1);
                m.add_tokens(busy, 1);
            },
        )
        .build();
    b.timed_activity("finish", FiringDistribution::Exponential { rate: 3.0 })
        .input_arc(busy, 1)
        .output_gate(move |m| m.add_tokens(done, 1))
        .build();
    b.instantaneous_activity("recycle")
        .input_arc(done, 3)
        .output_arc(pool, 2)
        .build();
    b.build().unwrap()
}

/// The SAN simulator on the mid-size SCoPE network-campaign model and
/// on the conservative-gate model, whose `recycle` cascades: recycling
/// one `SimState` across replications, the second pass over the same
/// seeds performs zero allocations — calendar slots, schedule,
/// case-weight tables and the cascade's enabled/weight scratch are all
/// reused.
#[test]
fn san_simulation_is_allocation_free_after_warmup() {
    let net = scope_network();
    let san = compile_network_campaign(&net, &ThreatModel::stuxnet_like())
        .expect("SCoPE network compiles");
    let gates = conservative_gate_model();
    let horizon = SimTime::from_secs(2_000.0);
    let seeds: Vec<u64> = (1..=10).collect();
    for (name, model) in [
        ("SCoPE campaign", &san.model),
        ("conservative-gate", &gates),
    ] {
        let mut state = SimState::new(model);
        let run_pass = |mut state: SimState, seeds: &[u64]| -> (SimState, u64) {
            let mut events = 0u64;
            for &seed in seeds {
                let mut sim = Simulator::with_state(model, seed, state);
                sim.run_until(horizon);
                events += sim.firings();
                state = sim.into_state();
            }
            (state, events)
        };
        let warm;
        (state, warm) = run_pass(state, &seeds);
        let before = allocations();
        let (_state, again) = run_pass(state, &seeds);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "{name} SAN allocated {delta} times across {warm}-event warm passes"
        );
        assert_eq!(
            warm, again,
            "{name}: identical seeds must replay identically"
        );
    }
}

/// The hardened executor path (panic isolation + budget checks wrapped
/// around every replication) keeps the steady state allocation-free:
/// failure-path allocations (boxed error records, panic payloads) only
/// happen when a replication actually fails, so a fault-free serial run
/// through a warm workspace must not allocate per replication.
#[test]
fn hardened_executor_path_is_allocation_free_per_replication() {
    use diversify::des::exec::{
        accept_all, Executor, MeanCollector, ReplicationPlan, RunPolicy, RunSpec,
    };
    let net = scope_network();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let policy = RunPolicy::new();
    let run = |reps: u32| -> u64 {
        let plan = ReplicationPlan::new(reps, 10, 0x2EE0);
        let before = allocations();
        let part = Executor::serial().execute(
            &RunSpec::new(&plan).with_policy(&policy),
            || sim.workspace(),
            |ws, rep| {
                let stats = sim.run_into(ws, rep.seed);
                stats.final_compromised_ratio
            },
            &MeanCollector,
            accept_all,
        );
        assert!(!part.is_degraded());
        black_box(part);
        allocations() - before
    };
    // Warm-up sizes the workspace pool and any lazy runtime state.
    let _ = run(2);
    let small = run(4);
    let large = run(8);
    // Per-round overhead must be zero: doubling the rounds (and thus
    // the budget checks and catch_unwind frames) adds no allocations
    // beyond the fixed setup (pool + accumulator + failure Vec).
    assert!(
        large <= small + 4,
        "hardened executor allocates per replication: {small} at 4 rounds, {large} at 8"
    );
}

/// The Monte-Carlo transient solver reuses its simulator state and
/// observers: doubling the replication count must not change the
/// *per-replication* allocation count — i.e. all allocation is setup.
#[test]
fn transient_solver_allocations_do_not_scale_with_replications() {
    use diversify::san::{RewardSpec, TransientSolver};
    let net = scope_network();
    let san = compile_network_campaign(&net, &ThreatModel::stuxnet_like())
        .expect("SCoPE network compiles");
    let impaired = san.impaired;
    let needed = san.goal_tokens;
    let rewards = [RewardSpec::first_passage("tta", move |m| {
        m.tokens(impaired) >= needed
    })];
    let horizon = SimTime::from_secs(500.0);
    let count_for = |reps: u32| -> u64 {
        let before = allocations();
        black_box(TransientSolver::new(horizon, reps, 7).solve(&san.model, &rewards));
        allocations() - before
    };
    // Warm-up: fault in lazily initialized runtime structures.
    let _ = count_for(5);
    let small = count_for(40);
    let large = count_for(80);
    assert!(
        large <= small + 8,
        "solver allocations scale with replications: {small} at 40 reps, {large} at 80"
    );
}
