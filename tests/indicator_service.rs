//! End-to-end tests of the sharded indicator service: wire-format
//! adversarial properties, chaos drills (worker faults must never change
//! merged indicators), cancel propagation, and a real TCP worker.

// Test code: the unwrap/expect ban (clippy.toml) applies to library code.
#![allow(clippy::disallowed_methods)]

use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify::core::exec::{campaign_plan, MeasurementsCollector};
use diversify::core::runner::Measurements;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use diversify::serve::channel::{loopback_pair, Channel, ChannelError, TcpChannel};
use diversify::serve::protocol::FromWorker;
use diversify::serve::service::{IndicatorRequest, IndicatorService, ServiceOptions};
use diversify::serve::wire::{decode_message, decode_value, encode_message, encode_value};
use diversify::serve::worker::{run_worker, WorkerOptions};
use diversify_des::exec::{CancelToken, Executor, RetryPolicy};
use diversify_des::faults::{silence_injected_panics, FaultKind, FaultPlan};
use proptest::prelude::*;
use serde::{Number, Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5EED;
const BATCH_SIZE: u32 = 3;
const CAMPAIGN: CampaignConfig = CampaignConfig {
    max_ticks: 120,
    detection_stops_attack: false,
};

fn request(batches: u32) -> IndicatorRequest {
    IndicatorRequest::fixed(
        ScopeConfig::default(),
        ThreatModel::stuxnet_like(),
        CAMPAIGN,
        batches,
        BATCH_SIZE,
        SEED,
    )
}

fn reference(batches: u32) -> Measurements {
    local_reference(&request(batches))
}

/// What a local unsharded run of `request`'s plan measures.
fn local_reference(request: &IndicatorRequest) -> Measurements {
    let system = ScopeSystem::build(&request.scope);
    let sim = CampaignSimulator::new(system.network(), request.threat.clone(), request.campaign);
    let plan = campaign_plan(request.batches, request.batch_size, request.seed);
    Executor::default().run_ws(
        &plan,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
    )
}

fn assert_identical(merged: &Measurements, reference: &Measurements) {
    assert_eq!(
        merged.summary.to_json_value(),
        reference.summary.to_json_value()
    );
    assert_eq!(merged.batch_p_success, reference.batch_p_success);
    assert_eq!(merged.batch_compromised, reference.batch_compromised);
}

fn service_options() -> ServiceOptions {
    let mut options = ServiceOptions::default();
    options.sweep.backoff_base = Duration::from_millis(1);
    options.sweep.backoff_cap = Duration::from_millis(10);
    options
}

/// The release-suite round trip: an in-process service answers
/// bit-identically to a local unsharded run, and a repeat replays from
/// the memo store without executing anything.
#[test]
fn loopback_service_round_trip() {
    let service = IndicatorService::in_process(3, service_options());
    let response = service.request(&request(4));
    assert!(!response.degraded);
    assert!(response.target_met);
    assert_eq!(response.new_replications, 4 * BATCH_SIZE);
    assert_identical(response.measurements.as_ref().unwrap(), &reference(4));

    let replay = service.request(&request(4));
    assert!(replay.from_cache);
    assert_eq!(replay.new_replications, 0);
    assert_identical(
        replay.measurements.as_ref().unwrap(),
        response.measurements.as_ref().unwrap(),
    );
}

/// The memo key's oracle: every component of a cell's identity — scope,
/// threat, campaign, batch size and seed — separates cells. Each variant
/// differs from the base request in exactly one of them, so a key that
/// dropped that component would serve the variant the base's memoized
/// batches instead of running its own.
#[test]
fn each_key_component_separates_cells() {
    const BATCHES: u32 = 2;
    let service = IndicatorService::in_process(3, service_options());
    let base = request(BATCHES);
    let first = service.request(&base);
    assert!(!first.from_cache);
    assert_identical(first.measurements.as_ref().unwrap(), &reference(BATCHES));

    let variants = [
        (
            "scope",
            IndicatorRequest {
                scope: ScopeConfig {
                    cracs: 6,
                    ..ScopeConfig::default()
                },
                ..base.clone()
            },
        ),
        (
            "threat",
            IndicatorRequest {
                threat: ThreatModel::duqu_like(),
                ..base.clone()
            },
        ),
        (
            "campaign",
            IndicatorRequest {
                campaign: CampaignConfig {
                    detection_stops_attack: true,
                    ..CAMPAIGN
                },
                ..base.clone()
            },
        ),
        (
            "batch_size",
            IndicatorRequest {
                batch_size: BATCH_SIZE + 1,
                ..base.clone()
            },
        ),
        (
            "seed",
            IndicatorRequest {
                seed: SEED + 1,
                ..base.clone()
            },
        ),
    ];
    for (component, variant) in &variants {
        let response = service.request(variant);
        assert!(!response.from_cache, "{component}: served from the memo");
        assert_eq!(
            response.new_replications,
            variant.batches * variant.batch_size,
            "{component}"
        );
        assert_identical(
            response.measurements.as_ref().unwrap(),
            &local_reference(variant),
        );
    }

    let replay = service.request(&base);
    assert!(replay.from_cache);
    assert_eq!(replay.new_replications, 0);
    assert_identical(
        replay.measurements.as_ref().unwrap(),
        first.measurements.as_ref().unwrap(),
    );
}

/// Chaos drill: one worker panics a replication, one worker's channel
/// drops mid-lease, one worker is merely slow. The coordinator retries
/// and re-deals until the sweep completes — and the merged indicators
/// are bit-identical to a fault-free local run, because shards carry
/// global seed schedules and the merge is a global-order left-fold.
#[test]
fn chaos_faults_leave_merged_indicators_bit_identical() {
    silence_injected_panics();
    let mut channels: Vec<Box<dyn Channel>> = Vec::new();
    let mut handles = Vec::new();

    // Worker 0: global replication 2 panics once (transient), and the
    // worker itself never retries — recovery is the coordinator's job.
    let replication_faults = Arc::new(
        FaultPlan::none(12)
            .with_fault(2, FaultKind::Panic)
            .transient(1),
    );
    let (coordinator_side, worker_side) = loopback_pair();
    let options = WorkerOptions {
        retry: RetryPolicy::none(),
        faults: Some(replication_faults),
        ..WorkerOptions::default()
    };
    handles.push(std::thread::spawn(move || {
        run_worker(worker_side, &options)
    }));
    channels.push(Box::new(coordinator_side));

    // Worker 1: its channel dies on its first send — a dropped worker
    // whose lease must be re-dealt elsewhere.
    let transport_faults = Arc::new(FaultPlan::none(1).with_fault(0, FaultKind::Panic));
    let (coordinator_side, worker_side) = loopback_pair();
    let worker_side = worker_side.with_send_faults(transport_faults);
    let options = WorkerOptions::default();
    handles.push(std::thread::spawn(move || {
        run_worker(worker_side, &options)
    }));
    channels.push(Box::new(coordinator_side));

    // Worker 2: healthy but slow on a couple of sends.
    let slow_faults = Arc::new(
        FaultPlan::none(4)
            .with_fault(1, FaultKind::Slow { micros: 2_000 })
            .with_fault(2, FaultKind::Slow { micros: 2_000 }),
    );
    let (coordinator_side, worker_side) = loopback_pair();
    let worker_side = worker_side.with_send_faults(slow_faults);
    let options = WorkerOptions::default();
    handles.push(std::thread::spawn(move || {
        run_worker(worker_side, &options)
    }));
    channels.push(Box::new(coordinator_side));

    let service = IndicatorService::with_channels(channels, service_options());
    let response = service.request(&request(4));
    assert!(!response.degraded, "health: {:?}", response.health);
    assert!(response.target_met);
    assert_identical(response.measurements.as_ref().unwrap(), &reference(4));
    assert!(service.live_workers() >= 1);

    drop(service);
    for handle in handles {
        handle.join().unwrap();
    }
}

/// A coordinator-side channel that forges the first `Done` report it
/// relays and re-frames it with a valid checksum: in the first batch the
/// TTA mean becomes NaN, the TTA count 8 (a batch holds 3
/// replications), and the TTSF mean +∞.
struct ForgingChannel<C> {
    inner: C,
    forged: Arc<AtomicBool>,
}

impl<C: Channel> Channel for ForgingChannel<C> {
    fn send(&mut self, frame: &[u8]) -> Result<(), ChannelError> {
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ChannelError> {
        let Some(frame) = self.inner.recv_timeout(timeout)? else {
            return Ok(None);
        };
        if self.forged.load(Ordering::SeqCst)
            || !matches!(decode_message(&frame), Ok(FromWorker::Done { .. }))
        {
            return Ok(Some(frame));
        }
        let mut value: Value = decode_message(&frame).unwrap();
        let batch = field(&mut value, &["Done", "outcome", "batches"]);
        let Value::Array(batches) = batch else {
            panic!("batches is an array")
        };
        let indicators = field(&mut batches[0], &["indicators"]);
        *field(indicators, &["tta", "mean"]) = f64::NAN.to_json_value();
        *field(indicators, &["tta", "count"]) = 8u64.to_json_value();
        *field(indicators, &["ttsf", "mean"]) = f64::INFINITY.to_json_value();
        let forged = encode_message(&value);
        assert!(
            decode_message::<Value>(&forged).is_ok(),
            "the forged frame passes every framing and checksum test"
        );
        self.forged.store(true, Ordering::SeqCst);
        Ok(Some(forged))
    }
}

/// The object field at `path` inside a wire value.
fn field<'v>(value: &'v mut Value, path: &[&str]) -> &'v mut Value {
    path.iter().fold(value, |at, key| match at {
        Value::Object(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1,
        other => panic!("no object above `{key}`: {other:?}"),
    })
}

/// A worker whose first `Done` report is forged into a state no fold
/// can produce: the service rejects it before any merge, re-deals the
/// shard to the honest worker, and answers — and memoizes — exactly the
/// local run, with no NaN or infinity anywhere.
#[test]
fn forged_batch_never_reaches_the_merge_or_the_memo() {
    let forged = Arc::new(AtomicBool::new(false));
    let (forger_side, forger_worker) = loopback_pair();
    let (honest_side, honest_worker) = loopback_pair();
    let handles: Vec<_> = [forger_worker, honest_worker]
        .into_iter()
        .map(|worker_side| {
            std::thread::spawn(move || run_worker(worker_side, &WorkerOptions::default()))
        })
        .collect();
    let channels: Vec<Box<dyn Channel>> = vec![
        Box::new(ForgingChannel {
            inner: forger_side,
            forged: Arc::clone(&forged),
        }),
        Box::new(honest_side),
    ];
    let service = IndicatorService::with_channels(channels, service_options());

    let response = service.request(&request(4));
    assert!(
        forged.load(Ordering::SeqCst),
        "the forging channel relayed no Done report"
    );
    assert!(!response.degraded, "health: {:?}", response.health);
    let measurements = response.measurements.as_ref().unwrap();
    let summary = &measurements.summary;
    assert!(summary.mean_tta.is_none_or(f64::is_finite));
    assert!(summary.mean_ttsf.is_none_or(f64::is_finite));
    assert_eq!(format!("{measurements:?}"), format!("{:?}", reference(4)));

    let replay = service.request(&request(4));
    assert!(replay.from_cache);
    assert_eq!(
        format!("{:?}", replay.measurements.unwrap()),
        format!("{:?}", reference(4))
    );

    drop(service);
    for handle in handles {
        handle.join().unwrap();
    }
}

/// A cancelled sweep stops instead of hanging: the response is typed as
/// cancelled, with no fabricated measurements.
#[test]
fn cancel_propagates_to_workers_and_degrades_typed() {
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut options = service_options();
    options.sweep.cancel = Some(cancel);
    let service = IndicatorService::in_process(2, options);
    let response = service.request(&request(4));
    assert!(response.cancelled);
    assert!(!response.target_met);
    assert!(response.measurements.is_none());
}

/// A real TCP worker: the coordinator talks length-prefixed frames over
/// a localhost socket and the answer is still bit-identical.
#[test]
fn tcp_worker_round_trips_bit_identically() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        run_worker(TcpChannel::new(stream), &WorkerOptions::default());
    });
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let service =
        IndicatorService::with_channels(vec![Box::new(TcpChannel::new(stream))], service_options());
    let response = service.request(&request(2));
    assert!(!response.degraded, "health: {:?}", response.health);
    assert_identical(response.measurements.as_ref().unwrap(), &reference(2));
    drop(service);
    worker.join().unwrap();
}

// --- Wire-format properties -------------------------------------------

/// A bounded-depth strategy over the full JSON value tree (the vendored
/// proptest has no `prop_recursive`; depth is bounded by construction).
/// Floats come from arbitrary bit patterns, so NaNs and infinities are
/// exercised too.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..12)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn arb_leaf() -> OneOf<Value> {
    prop_oneof![
        (0u8..1).prop_map(|_| Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|u| Value::Number(Number::U(u))),
        any::<u64>().prop_map(|u| Value::Number(Number::I(u as i64))),
        any::<u64>().prop_map(|u| Value::Number(Number::F(f64::from_bits(u)))),
        arb_string().prop_map(Value::String),
    ]
}

fn arb_value(depth: u32) -> Box<dyn Strategy<Value = Value>> {
    if depth == 0 {
        return boxed(arb_leaf());
    }
    boxed(prop_oneof![
        arb_leaf(),
        prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::Array),
        prop::collection::vec((arb_string(), arb_value(depth - 1)), 0..4).prop_map(Value::Object),
    ])
}

/// Structural equality that treats NaN as equal to itself: the wire
/// encodes f64 bit patterns, so a NaN must survive the round trip even
/// though `PartialEq` says it differs from everything.
fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => number_eq(x, y),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| value_eq(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && value_eq(va, vb))
        }
        _ => a == b,
    }
}

/// Numeric identity across the wire's normalizations: floats compare by
/// bit pattern, and a non-negative signed integer equals its unsigned
/// form (the encoder emits both under the unsigned tag).
fn number_eq(a: &Number, b: &Number) -> bool {
    match (a, b) {
        (Number::F(x), Number::F(y)) => x.to_bits() == y.to_bits(),
        (Number::U(u), Number::I(i)) | (Number::I(i), Number::U(u)) => u64::try_from(*i) == Ok(*u),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every value round-trips through the payload codec bit-exactly.
    #[test]
    fn wire_round_trips_every_value(value in arb_value(3)) {
        let bytes = encode_value(&value);
        let back = decode_value(&bytes).unwrap();
        prop_assert!(value_eq(&back, &value));
    }

    /// Every value round-trips through a full checksummed frame.
    #[test]
    fn framed_messages_round_trip(value in arb_value(2)) {
        let frame = encode_message(&value);
        let back: Value = decode_message(&frame).unwrap();
        prop_assert!(value_eq(&back, &value));
    }

    /// Flipping any single byte of a frame — header or payload — is
    /// detected: magic, length, and checksum checks leave no blind
    /// spot, and detection is a typed error, never a panic.
    #[test]
    fn any_single_byte_flip_is_rejected(value in arb_value(2), pos_seed in any::<usize>(), flip in 1u8..=255) {
        let mut frame = encode_message(&value);
        let pos = pos_seed % frame.len();
        frame[pos] ^= flip;
        prop_assert!(decode_message::<Value>(&frame).is_err());
    }

    /// Every strict prefix of a frame is rejected as a typed error.
    #[test]
    fn truncated_frames_are_rejected(value in arb_value(2), cut_seed in any::<usize>()) {
        let frame = encode_message(&value);
        let cut = cut_seed % frame.len();
        prop_assert!(decode_message::<Value>(&frame[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_message::<Value>(&bytes);
        let _ = decode_value(&bytes);
    }
}
