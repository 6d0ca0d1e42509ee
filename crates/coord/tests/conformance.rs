//! Transport-conformance suite: ONE contract, THREE wires.
//!
//! Every guarantee the coordinator makes — merged runs bit-identical to
//! the unsharded calibrator for any shard count, idempotent re-dispatch,
//! failover that survives shard death — is stated once as a parameterized
//! contract and executed against each transport:
//!
//! * [`LoopbackTransport`] — the in-process reference wire,
//! * [`SimTransport`] — the deterministic adversity wire,
//! * [`TcpTransport`] — real sockets over localhost, sealed frames, a live
//!   [`TcpWorkerServer`] per campaign.
//!
//! A transport that passes this suite is interchangeable with the others
//! under the coordinator; that is the whole point of the abstraction.
//!
//! TCP legs keep `tcp` in their test names so CI's `socket-smoke` job can
//! select exactly them with a test-name filter.

use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_coord::{
    AuthKey, Body, CoordError, Coordinator, CoordinatorConfig, LoopbackTransport, Message, Phase,
    ShardPlan, ShardTask, SimConfig, SimTransport, TcpConfig, TcpTransport, TcpWorkerServer,
    Transport, WireStats,
};
use cloudconst_netmodel::{
    CalibrationConfig, Calibrator, FallibleNetworkProbe, FaultyTpRun, ImputePolicy, ProbeOutcome,
    RetryPolicy, TpMatrix,
};
use std::time::Duration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STEPS: usize = 2;

/// The fixture cloud every leg calibrates: small enough to keep the TCP
/// legs fast, faulty enough (5% probe loss) that the fallible machinery
/// is actually exercised.
fn cloud() -> FaultyCloud {
    FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::small_test(12, 11)),
        FaultPlan::uniform(23, 0.05),
    )
}

fn unsharded_reference() -> FaultyTpRun {
    Calibrator::new().calibrate_tp_faulty_par(
        &cloud(),
        0.0,
        60.0,
        STEPS,
        &RetryPolicy::default(),
        ImputePolicy::LastGood,
    )
}

fn campaign_key() -> AuthKey {
    AuthKey::from_seed(0xC0FFEE)
}

/// One harness variant per wire; the TCP variant owns its server so both
/// live exactly as long as the campaign.
enum Harness {
    Loopback(LoopbackTransport<FaultyCloud>),
    Sim(SimTransport<FaultyCloud>),
    Tcp {
        transport: TcpTransport,
        server: TcpWorkerServer,
    },
}

impl Harness {
    fn loopback(k: usize) -> Self {
        Harness::Loopback(LoopbackTransport::new(cloud(), k))
    }

    fn sim(k: usize) -> Self {
        Harness::Sim(SimTransport::new(
            cloud(),
            k,
            SimConfig {
                seed: 40 + k as u64,
                loss_prob: 0.0,
                latency: (0.001, 0.050),
            },
        ))
    }

    fn tcp(k: usize) -> Self {
        let key = campaign_key();
        let server = TcpWorkerServer::spawn(cloud(), k, key).expect("bind localhost");
        let transport = TcpTransport::connect(&server.shard_addrs(k), TcpConfig::new(key))
            .expect("connect + handshake over localhost");
        Harness::Tcp { transport, server }
    }

    fn server(&self) -> &TcpWorkerServer {
        match self {
            Harness::Tcp { server, .. } => server,
            _ => panic!("only the TCP harness has a server"),
        }
    }
}

impl Transport for Harness {
    fn n(&self) -> usize {
        match self {
            Harness::Loopback(t) => t.n(),
            Harness::Sim(t) => t.n(),
            Harness::Tcp { transport, .. } => transport.n(),
        }
    }

    fn shards(&self) -> usize {
        match self {
            Harness::Loopback(t) => t.shards(),
            Harness::Sim(t) => t.shards(),
            Harness::Tcp { transport, .. } => transport.shards(),
        }
    }

    fn send(&mut self, shard: usize, frame: Vec<u8>) -> Result<(), CoordError> {
        match self {
            Harness::Loopback(t) => t.send(shard, frame),
            Harness::Sim(t) => t.send(shard, frame),
            Harness::Tcp { transport, .. } => transport.send(shard, frame),
        }
    }

    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError> {
        match self {
            Harness::Loopback(t) => t.deliver_next(),
            Harness::Sim(t) => t.deliver_next(),
            Harness::Tcp { transport, .. } => transport.deliver_next(),
        }
    }

    fn stats(&self) -> WireStats {
        match self {
            Harness::Loopback(t) => t.stats(),
            Harness::Sim(t) => t.stats(),
            Harness::Tcp { transport, .. } => transport.stats(),
        }
    }

    fn shard_dead(&self, shard: usize) -> bool {
        match self {
            Harness::Loopback(t) => t.shard_dead(shard),
            Harness::Sim(t) => t.shard_dead(shard),
            Harness::Tcp { transport, .. } => transport.shard_dead(shard),
        }
    }
}

fn assert_tp_bits_equal(a: &TpMatrix, b: &TpMatrix, what: &str) {
    assert_eq!(a.n(), b.n(), "{what}: n");
    assert_eq!(a.steps(), b.steps(), "{what}: steps");
    for (x, y) in a.times().iter().zip(b.times()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: times");
    }
    for (ma, mb, plane) in [
        (a.alpha_matrix(), b.alpha_matrix(), "alpha"),
        (a.inv_beta_matrix(), b.inv_beta_matrix(), "inv_beta"),
        (a.mask_matrix(), b.mask_matrix(), "mask"),
    ] {
        for (k, (x, y)) in ma.as_slice().iter().zip(mb.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {plane} cell {k}");
        }
    }
}

fn assert_runs_bit_identical(sharded: &FaultyTpRun, unsharded: &FaultyTpRun, what: &str) {
    assert_tp_bits_equal(&sharded.tp, &unsharded.tp, what);
    assert_eq!(
        sharded.overhead.to_bits(),
        unsharded.overhead.to_bits(),
        "{what}: overhead"
    );
    assert_eq!(sharded.logs, unsharded.logs, "{what}: logs");
}

// ---------------------------------------------------------------------------
// Contract 1: for K ∈ {1, 2, 4, 8} the merged sharded run `to_bits`-equals
// the unsharded fault-aware calibrator — matrix, masks, overhead and logs.
// ---------------------------------------------------------------------------

fn contract_merge_is_bit_identical(mk: impl Fn(usize) -> Harness, wire: &str) {
    let reference = unsharded_reference();
    for k in SHARD_COUNTS {
        let mut transport = mk(k);
        let sharded = Coordinator::new(CoordinatorConfig::new(k))
            .calibrate_tp(&mut transport, 0.0, 60.0, STEPS)
            .unwrap_or_else(|e| panic!("{wire} K={k}: campaign aborted: {e}"));
        assert_runs_bit_identical(&sharded.run, &reference, &format!("{wire} K={k}"));
        assert_eq!(sharded.report.shards, k as u64, "{wire} K={k}");
    }
}

#[test]
fn merge_is_bit_identical_over_loopback() {
    contract_merge_is_bit_identical(Harness::loopback, "loopback");
}

#[test]
fn merge_is_bit_identical_over_sim() {
    contract_merge_is_bit_identical(Harness::sim, "sim");
}

#[test]
fn merge_is_bit_identical_over_tcp() {
    contract_merge_is_bit_identical(Harness::tcp, "tcp");
}

// ---------------------------------------------------------------------------
// Contract 2: re-dispatching a frame is idempotent — a duplicate returns
// the exact cached response, bit for bit, and never double-executes.
// ---------------------------------------------------------------------------

fn contract_duplicate_dispatch_is_idempotent(mut transport: Harness, wire: &str) {
    let task = Message {
        seq: 1,
        shard: 0,
        body: Body::Task(ShardTask {
            snapshot: 0,
            round: 0,
            phase: Phase::Small,
            bytes: 1 << 10,
            at: 0.0,
            retry: RetryPolicy::default(),
            pairs: vec![(0, 1), (2, 3)],
        }),
    }
    .encode();

    transport.send(0, task.clone()).unwrap();
    transport.send(0, task).unwrap();
    let mut acks = Vec::new();
    while acks.len() < 2 {
        match transport.deliver_next().unwrap() {
            Some(frame) => acks.push(frame),
            None => panic!("{wire}: wire stalled before both responses arrived"),
        }
    }
    assert_eq!(
        acks[0], acks[1],
        "{wire}: duplicate must replay the cached bytes"
    );
    match Message::decode(&acks[0]).unwrap() {
        Message {
            seq,
            shard,
            body: Body::Ack { .. },
        } => {
            assert_eq!(seq, 1, "{wire}");
            assert_eq!(shard, 0, "{wire}");
        }
        other => panic!("{wire}: expected an ack, got {other:?}"),
    }
}

#[test]
fn duplicate_dispatch_is_idempotent_over_loopback() {
    contract_duplicate_dispatch_is_idempotent(Harness::loopback(2), "loopback");
}

#[test]
fn duplicate_dispatch_is_idempotent_over_sim() {
    contract_duplicate_dispatch_is_idempotent(Harness::sim(2), "sim");
}

#[test]
fn duplicate_dispatch_is_idempotent_over_tcp() {
    contract_duplicate_dispatch_is_idempotent(Harness::tcp(2), "tcp");
}

// ---------------------------------------------------------------------------
// Contract 3: a shard dying mid-campaign triggers failover and the
// survivors still merge a run bit-identical to the unsharded calibrator.
// The kill mechanism is the transport's own: a swallowed sim frame, a
// closed socket, or a wedged (silent) socket.
// ---------------------------------------------------------------------------

fn contract_failover_survives_the_kill(mut transport: Harness, k: usize, what: &str) {
    let reference = unsharded_reference();
    let mut config = CoordinatorConfig::new(k);
    config.dispatch_attempts = 3;
    config.failover_attempts = 2;
    let sharded = Coordinator::new(config)
        .calibrate_tp(&mut transport, 0.0, 60.0, STEPS)
        .unwrap_or_else(|e| panic!("{what}: survivors must finish: {e}"));
    assert_runs_bit_identical(&sharded.run, &reference, what);
    assert!(sharded.report.failovers >= 1, "{what}: the kill must fire");
    assert_eq!(sharded.report.shards_alive as usize, k - 1, "{what}");
}

#[test]
fn failover_after_sim_kill() {
    let mut harness = Harness::sim(4);
    if let Harness::Sim(t) = &mut harness {
        t.kill_after(2, 1);
    }
    contract_failover_survives_the_kill(harness, 4, "sim kill_after");
}

/// Abrupt socket death: the server closes the shard's connection, the
/// coordinator's reader observes EOF and the deadness probe fails the
/// shard over without burning the dispatch budget.
#[test]
fn failover_after_tcp_disconnect() {
    let harness = Harness::tcp(4);
    harness.server().disconnect_shard(2);
    // Give the reader thread a moment to observe the EOF; the campaign
    // works either way (budget death is the fallback), this just makes
    // the fast path the one under test most of the time.
    std::thread::sleep(Duration::from_millis(50));
    contract_failover_survives_the_kill(harness, 4, "tcp disconnect");
}

/// Wedged-host death: the socket stays open but the worker swallows every
/// frame. TCP cannot observe that — the shard is declared dead only when
/// it stays silent past the whole dispatch budget (timeout-based death).
#[test]
fn failover_after_tcp_silent_kill_by_dispatch_budget() {
    let key = campaign_key();
    let k = 4;
    let server = TcpWorkerServer::spawn(cloud(), k, key).expect("bind localhost");
    server.kill_shard_after(2, 1);
    let cfg = TcpConfig::new(key).with_recv_timeout(Duration::from_millis(100));
    let transport = TcpTransport::connect(&server.shard_addrs(k), cfg).expect("connect");
    contract_failover_survives_the_kill(Harness::Tcp { transport, server }, k, "tcp silent kill");
}

// ---------------------------------------------------------------------------
// Contract 3b: a campaign runs its snapshots as one wave, so a shard can die
// between two task barriers of every snapshot at once, or after some
// snapshots are merged. Merged snapshots are kept, the rest restart on the
// survivors, and the run is still bit-identical.
// ---------------------------------------------------------------------------

/// Snapshots of the mid-wave campaigns, enough that the flushes span several
/// barriers.
const WAVE_STEPS: usize = 4;
/// Shard killed mid-wave; at K = 4 on the 12-VM fixture it carries pairs.
const VICTIM: usize = 1;

/// Frames the victim receives before it dies: halfway through its task
/// frames (mid-barrier), or right after the flush of the first snapshot.
fn kill_points(k: usize) -> [(u64, &'static str); 2] {
    let plan = ShardPlan::new(cloud().n(), k, &CalibrationConfig::default());
    let rounds = (0..plan.rounds())
        .filter(|&r| plan.chunks(r).iter().any(|&(s, _)| s == VICTIM))
        .count() as u64;
    let tasks = rounds * 2 * WAVE_STEPS as u64;
    [
        (tasks / 2 + 1, "mid-task"),
        (tasks + 1, "after the first flush"),
    ]
}

fn contract_mid_wave_kill(mut transport: Harness, k: usize, what: &str) {
    let reference = Calibrator::new().calibrate_tp_faulty_par(
        &cloud(),
        0.0,
        60.0,
        WAVE_STEPS,
        &RetryPolicy::default(),
        ImputePolicy::LastGood,
    );
    let mut config = CoordinatorConfig::new(k);
    config.dispatch_attempts = 3;
    config.failover_attempts = 1;
    let sharded = Coordinator::new(config)
        .calibrate_tp(&mut transport, 0.0, 60.0, WAVE_STEPS)
        .unwrap_or_else(|e| panic!("{what}: survivors must finish: {e}"));
    assert_runs_bit_identical(&sharded.run, &reference, what);
    assert_eq!(
        sharded.report.failovers, 1,
        "{what}: the kill must fire once"
    );
    assert_eq!(sharded.report.shards_alive as usize, k - 1, "{what}");
}

#[test]
fn mid_wave_kill_over_sim() {
    let k = 4;
    for (frames, when) in kill_points(k) {
        let mut harness = Harness::sim(k);
        if let Harness::Sim(t) = &mut harness {
            t.kill_after(VICTIM, frames);
        }
        contract_mid_wave_kill(harness, k, &format!("sim kill {when}"));
    }
}

#[test]
fn mid_wave_silent_kill_over_tcp() {
    let (key, k) = (campaign_key(), 4);
    for (frames, when) in kill_points(k) {
        let server = TcpWorkerServer::spawn(cloud(), k, key).expect("bind localhost");
        server.kill_shard_after(VICTIM, frames);
        let cfg = TcpConfig::new(key).with_recv_timeout(Duration::from_millis(100));
        let transport = TcpTransport::connect(&server.shard_addrs(k), cfg).expect("connect");
        contract_mid_wave_kill(
            Harness::Tcp { transport, server },
            k,
            &format!("tcp silent kill {when}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Contract 4: a transport whose shards cannot die reports a full house —
// no failovers, every shard alive at the end.
// ---------------------------------------------------------------------------

#[test]
fn loopback_campaign_reports_every_shard_alive() {
    let k = 4;
    let mut transport = Harness::loopback(k);
    let sharded = Coordinator::new(CoordinatorConfig::new(k))
        .calibrate_tp(&mut transport, 0.0, 60.0, STEPS)
        .expect("loopback campaign cannot abort");
    assert_eq!(sharded.report.failovers, 0);
    assert_eq!(sharded.report.shards_alive as usize, k);
    for s in 0..k {
        assert!(!transport.shard_dead(s), "loopback shard {s} reported dead");
    }
}

// ---------------------------------------------------------------------------
// Contract 5: frames come from outside the program, so a fragment that
// leaves a scheduled cell unreported, a measured cell whose α or β is not a
// valid link figure, or a phase ack whose time is not a valid duration is
// each a typed protocol error — never an `Ok` whose missing cells were
// silently imputed, nor a panic or a non-finite cell in the TP-matrix.
// ---------------------------------------------------------------------------

/// Wraps a transport and lets `tamper` rewrite the body of every frame
/// `shard` ships.
struct Tampered<T, F> {
    inner: T,
    shard: u32,
    tamper: F,
}

impl<T: Transport, F: FnMut(&mut Body)> Transport for Tampered<T, F> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn send(&mut self, shard: usize, frame: Vec<u8>) -> Result<(), CoordError> {
        self.inner.send(shard, frame)
    }

    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError> {
        let Some(frame) = self.inner.deliver_next()? else {
            return Ok(None);
        };
        let mut msg = Message::decode(&frame)?;
        if msg.shard != self.shard {
            return Ok(Some(frame));
        }
        (self.tamper)(&mut msg.body);
        Ok(Some(msg.encode()))
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    fn shard_dead(&self, shard: usize) -> bool {
        self.inner.shard_dead(shard)
    }
}

/// Run a K=2 loopback campaign whose shard 1 frames pass through `tamper`
/// and require a protocol error.
fn assert_tampering_is_a_protocol_error(what: &str, tamper: impl FnMut(&mut Body)) {
    let cloud = SyntheticCloud::new(CloudConfig::small_test(16, 11));
    let mut transport = Tampered {
        inner: LoopbackTransport::new(cloud, 2),
        shard: 1,
        tamper,
    };
    match Coordinator::new(CoordinatorConfig::new(2)).calibrate_tp(&mut transport, 0.0, 60.0, 10) {
        Err(CoordError::Protocol(_)) => {}
        Err(other) => panic!("{what}: expected a protocol error, got {other:?}"),
        Ok(run) => panic!(
            "{what}: the tampered frame was accepted: success rate {}",
            run.report.success_rate
        ),
    }
}

#[test]
fn fragment_missing_a_scheduled_cell_is_a_protocol_error() {
    assert_tampering_is_a_protocol_error("dropped cell", |body| {
        if let Body::Partial(p) = body {
            p.cells.pop();
        }
    });
}

#[test]
fn fragment_with_an_invalid_measurement_is_a_protocol_error() {
    for (what, alpha, beta) in [
        ("NaN α", f64::NAN, 1e9),
        ("negative α", -1e-4, 1e9),
        ("infinite α", f64::INFINITY, 1e9),
        ("zero β", 1e-4, 0.0),
        ("NaN β", 1e-4, f64::NAN),
    ] {
        assert_tampering_is_a_protocol_error(what, |body| {
            if let Body::Partial(p) = body {
                let cell = p
                    .cells
                    .iter_mut()
                    .find(|c| matches!(c.outcome, ProbeOutcome::Ok(_)));
                let cell = cell.expect("a clean cloud measures every cell");
                (cell.alpha, cell.beta) = (alpha, beta);
            }
        });
    }
}

#[test]
fn phase_ack_with_an_invalid_time_is_a_protocol_error() {
    for (what, bad) in [
        ("NaN", f64::NAN),
        ("negative", -1.0),
        ("infinite", f64::INFINITY),
    ] {
        assert_tampering_is_a_protocol_error(what, |body| {
            if let Body::Ack { max_consumed } = body {
                *max_consumed = bad;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// TCP-only: the typed authentication surface of a real socket campaign.
// ---------------------------------------------------------------------------

/// A coordinator holding the wrong campaign key is refused at the
/// handshake — typed `AuthFailure`, not a hang or a protocol panic.
#[test]
fn tcp_campaign_with_wrong_key_is_a_typed_auth_failure() {
    let server = TcpWorkerServer::spawn(cloud(), 2, AuthKey::from_seed(1)).expect("bind");
    let cfg = TcpConfig::new(AuthKey::from_seed(2));
    match TcpTransport::connect(&server.shard_addrs(2), cfg) {
        Err(CoordError::AuthFailure(_)) => {}
        Err(other) => panic!("expected AuthFailure, got {other:?}"),
        Ok(_) => panic!("a wrong-key handshake must not succeed"),
    }
}
