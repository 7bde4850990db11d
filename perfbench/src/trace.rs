//! The traced run: charges a workload's wall clock to the simulator's
//! layers, entirely from outside the library.
//!
//! * Host layer (`tpp_endhost`, `tpp_apps`, `TrafficGen`): every app is
//!   wrapped in [`TimingApp`], which times and counts each callback and
//!   attributes its allocations — exact, inside the real run.
//! * Switch layer (`tpp_switch` on `tpp_core`): the workload's frame mix is
//!   replayed through `Switch::receive`/`Switch::dequeue` on a fresh copy of
//!   the topology; ns/frame × frames the switches received estimates it.
//! * Scheduler (`tpp_netsim::engine`): a standalone `Scheduler` is driven
//!   at the run's sampled pending depth; ns/event × events estimates it.
//! * Fabric (`tpp_fabric`): lookahead, epochs, shard balance, partition
//!   time and the speed-up over a 1-shard run of the same workload.
//! * The coordinator, links and frame pool (`tpp_netsim::{net,link,nodes}`)
//!   get the residual `net.rest_s`, printed as measured, never clamped.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpp_apps::common::{udp_frame, DATA_PORT};
use tpp_apps::rcp::{collect_probe, update_probe, RcpSenderApp, RcpSinkApp};
use tpp_core::asm::TppBuilder;
use tpp_core::wire::{build_standalone, insert_transparent, Tpp};
use tpp_endhost::shim::mac_of_ip;
use tpp_fabric::ExecMode;
use tpp_netsim::{HostApp, HostCtx, NetStats, Network, NodeId, Scheduler, Time};
use tpp_switch::ReceiveOutcome;

use crate::alloc::{Allocs, HostScope};
use crate::reference::RefLoop;
use crate::workload::{Setup, Sim, SplitMix, Workload, WAN_PAYLOAD};
use crate::{median, run_once, Report};

/// Callback count and busy time of one wrapped app. Each tally is touched
/// only by the thread running its host, so the atomics never contend.
#[derive(Default)]
struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Times every callback of the app it wraps. `as_any` forwards to the inner
/// app, so `Network::app_mut::<RcpSenderApp>` still finds it.
struct TimingApp {
    inner: Box<dyn HostApp>,
    tally: Arc<Tally>,
}

impl TimingApp {
    fn timed(&mut self, f: impl FnOnce(&mut dyn HostApp)) {
        let _host = HostScope::enter();
        let t0 = Instant::now();
        f(&mut *self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        // Relaxed: statistics, read after the run has joined.
        self.tally.ns.fetch_add(ns, Ordering::Relaxed);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl HostApp for TimingApp {
    fn start(&mut self, ctx: &mut HostCtx<'_>) {
        self.timed(|a| a.start(ctx));
    }

    fn on_frame(&mut self, ctx: &mut HostCtx<'_>, frame: Vec<u8>) {
        self.timed(|a| a.on_frame(ctx, frame));
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, token: u64) {
        self.timed(|a| a.on_timer(ctx, token));
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

/// Pending-depth samples taken between fixed simulated-time windows.
#[derive(Clone, Copy, Default)]
struct Depth {
    sum: f64,
    n: u64,
    max: usize,
}

impl Depth {
    fn mean(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }
}

/// Windows per horizon when sampling the scheduler's pending depth.
const DEPTH_WINDOWS: u64 = 200;

/// Run a 1-shard network to the horizon in fixed windows, sampling
/// `pending_events()` after each. Returns the wall time of the whole run.
fn run_sampled(sim: &mut Sim, horizon: Time, depth: &mut Depth) -> f64 {
    let Sim::Single(net) = sim else { unreachable!("depth sampling runs at 1 shard") };
    let step = (horizon / DEPTH_WINDOWS).max(1);
    let t0 = Instant::now();
    let mut t = 0;
    while t < horizon {
        t = (t + step).min(horizon);
        net.run_until(t);
        let p = net.pending_events();
        depth.sum += p as f64;
        depth.n += 1;
        depth.max = depth.max.max(p);
    }
    t0.elapsed().as_secs_f64()
}

/// What one traced run measured.
struct Traced {
    run_s: f64,
    setup_s: f64,
    fabric_setup_s: f64,
    stats: NetStats,
    allocs: Allocs,
    host_calls: u64,
    host_s: f64,
    host_rx: u64,
    host_tx: u64,
    rcp: RcpCounters,
    depth: Depth,
    /// `(lookahead ns, events per shard)` of a sharded run.
    fabric: Option<(Time, Vec<u64>)>,
}

/// Harness and shim counters summed over the RCP* apps (all zero for the
/// datacenter workloads, whose `TrafficGen`s have neither).
#[derive(Default)]
struct RcpCounters {
    stamped: u64,
    parse_failures: u64,
    probe_bytes: u64,
    data_bytes: u64,
    collects: u64,
    updates: u64,
}

fn traced_once(w: Workload, seed: u64) -> Traced {
    let mut tallies = Vec::new();
    let mut wrap = |inner: Box<dyn HostApp>| -> Box<dyn HostApp> {
        let tally = Arc::new(Tally::default());
        tallies.push(tally.clone());
        Box::new(TimingApp { inner, tally })
    };
    let Setup { mut sim, hosts, senders, setup_s, fabric_setup_s } =
        w.setup(seed, w.shards(), &mut wrap);
    let mut depth = Depth::default();
    let a0 = Allocs::now();
    let run_s = if w.shards() == 1 {
        run_sampled(&mut sim, w.horizon(), &mut depth)
    } else {
        let t0 = Instant::now();
        sim.run_until(w.horizon());
        t0.elapsed().as_secs_f64()
    };
    let allocs = Allocs::now().since(a0);
    let stats = sim.stats();
    let host_calls = tallies.iter().map(|t| t.calls.load(Ordering::Relaxed)).sum();
    let host_ns: u64 = tallies.iter().map(|t| t.ns.load(Ordering::Relaxed)).sum();
    let host_rx = hosts.iter().map(|&h| sim.host(h).rx_frames).sum();
    let host_tx = hosts.iter().map(|&h| sim.host(h).tx_frames).sum();
    let rcp = rcp_counters(&mut sim, &hosts, &senders);
    let fabric = match &sim {
        Sim::Single(_) => None,
        Sim::Sharded(f) => {
            Some((f.lookahead(), f.shards().iter().map(|s| s.stats.events_processed).collect()))
        }
    };
    Traced {
        run_s,
        setup_s,
        fabric_setup_s,
        stats,
        allocs,
        host_calls,
        host_s: host_ns as f64 * 1e-9,
        host_rx,
        host_tx,
        rcp,
        depth,
        fabric,
    }
}

fn rcp_counters(sim: &mut Sim, hosts: &[NodeId], senders: &[NodeId]) -> RcpCounters {
    let mut c = RcpCounters::default();
    for &h in hosts {
        let shim = if senders.contains(&h) {
            let app = sim.app_mut::<RcpSenderApp>(h);
            c.probe_bytes += app.probe_bytes_sent();
            c.data_bytes += app.data_bytes_sent;
            c.updates += app.probes_completed;
            if let Some(e) = app.executor() {
                c.collects += e.sent + e.retransmitted;
            }
            app.shim().map(|s| s.counters)
        } else if !senders.is_empty() {
            sim.app_mut::<RcpSinkApp>(h).shim().map(|s| s.counters)
        } else {
            None
        };
        if let Some(s) = shim {
            c.stamped += s.tx_stamped;
            c.parse_failures += s.parse_failures;
        }
    }
    c
}

/// Distinct frames in a switch replay (re-copied between timed passes).
const REPLAY_FRAMES: usize = 1024;
/// Timed passes over those frames per switch-replay sample.
const REPLAY_PASSES: usize = 200;
/// Samples per replay; the median is reported.
const REPLAY_SAMPLES: usize = 5;

/// The frames a switch replays: the workload's own sizes, TPP programs
/// and TPP share, built with the same public builders the workload uses,
/// sent by the first host to uniform destinations (the far site for the
/// WAN flows).
fn replay_frames(w: Workload, seed: u64, net: &Network, mix: &RcpCounters) -> Vec<Vec<u8>> {
    let mut rng = SplitMix(seed ^ 0x5EED);
    let hosts = net.host_ids();
    let (src_ip, src_mac) = (net.host(hosts[0]).ip, net.host(hosts[0]).mac);
    let dsts = match w {
        Workload::WanRcpX2 => &hosts[hosts.len() / 2..],
        _ => &hosts[1..],
    };
    let visibility: Tpp = TppBuilder::stack_mode()
        .push_m("Switch:SwitchID")
        .and_then(|b| b.push_m("PacketMetadata:OutputPort"))
        .and_then(|b| b.push_m("Queue:QueueOccupancy"))
        .map(|b| b.hops(6))
        .and_then(TppBuilder::build)
        .expect("the §2.1 visibility program assembles");
    let cfg = Workload::rcp_config();
    let collect = collect_probe().app_id(cfg.app_id).hops(cfg.probe_hops).compile();
    let collect = collect.expect("static probe");
    let update = update_probe().app_id(cfg.app_id).compile_hops(8).expect("static probe");
    let data_frames = mix.data_bytes / udp_frame(src_ip, src_ip, 0, 0, WAN_PAYLOAD).len() as u64;
    let total = (mix.collects + mix.updates + data_frames).max(1);
    (0..REPLAY_FRAMES)
        .map(|_| {
            let dst_ip = net.host(dsts[rng.below(dsts.len() as u64) as usize]).ip;
            let standalone = |sport, tpp: &Tpp| {
                build_standalone(src_mac, mac_of_ip(dst_ip), src_ip, dst_ip, sport, tpp)
            };
            match w {
                Workload::DcProbe => {
                    insert_transparent(&udp_frame(src_ip, dst_ip, 5001, 5001, 256), &visibility)
                }
                Workload::WanRcpX2 => {
                    let r = rng.below(total);
                    if r < mix.collects {
                        standalone(7000, &collect)
                    } else if r < mix.collects + mix.updates {
                        standalone(40_001, &update)
                    } else {
                        udp_frame(src_ip, dst_ip, 7000, DATA_PORT, WAN_PAYLOAD)
                    }
                }
            }
        })
        .collect()
}

/// ns per frame for `Switch::receive` + `Switch::dequeue` on the first
/// host's edge switch of a freshly built copy of the topology.
fn replay_switch(w: Workload, seed: u64, mix: &RcpCounters) -> f64 {
    let mut net = w.topology(seed).build().net;
    let templates = replay_frames(w, seed, &net, mix);
    let src = net.host_ids()[0];
    let (_, swid) = net.neighbors_iter(src).next().expect("host has a link");
    let in_port = net.neighbors_iter(swid).find(|&(_, p)| p == src).expect("link back").0;
    let sw = net.switch_mut(swid);
    let mut bufs = templates.clone();
    let mut now: Time = 1_000_000;
    let mut samples = Vec::new();
    for _ in 0..REPLAY_SAMPLES {
        let mut busy = Duration::ZERO;
        for _ in 0..REPLAY_PASSES {
            let t0 = Instant::now();
            for b in &mut bufs {
                let frame = std::mem::take(b);
                *b = match sw.receive(now, in_port, frame) {
                    ReceiveOutcome::Enqueued { port, .. } => {
                        sw.dequeue(now, port).expect("a frame was just enqueued")
                    }
                    ReceiveOutcome::Dropped(r) => panic!("replay frame dropped: {r:?}"),
                };
                now += 100;
            }
            busy += t0.elapsed();
            for (b, t) in bufs.iter_mut().zip(&templates) {
                b.clear();
                b.extend_from_slice(t);
            }
        }
        samples.push(busy.as_nanos() as f64 / (REPLAY_PASSES * REPLAY_FRAMES) as f64);
    }
    median(samples)
}

/// Events per scheduler-replay sample.
const SCHED_EVENTS: u64 = 2_000_000;

/// ns per event for a standalone `Scheduler` held at `depth` pending
/// events, each popped event rescheduled after a uniform delay with the
/// run's mean sojourn (Little's law: depth × simulated ns per event).
fn replay_scheduler(depth: f64, ns_per_event: f64, seed: u64) -> f64 {
    let depth = depth.round().max(1.0) as u64;
    let sojourn = ((depth as f64 * ns_per_event) as u64).max(1);
    let mut samples = Vec::new();
    for _ in 0..REPLAY_SAMPLES {
        let mut rng = SplitMix(seed ^ 0x5C4E);
        // Event payloads the size of the simulator's own events.
        let mut s: Scheduler<[u64; 3]> = Scheduler::new();
        for i in 0..depth {
            s.schedule_keyed(rng.below(2 * sojourn), rng.next_u64(), [i; 3]);
        }
        let mut batch = Vec::new();
        let mut popped = 0;
        let t0 = Instant::now();
        while popped < SCHED_EVENTS {
            batch.clear();
            let t = s.pop_batch(&mut batch).expect("the hold model never drains");
            popped += batch.len() as u64;
            for &(key, ev) in &batch {
                s.schedule_keyed(t + 1 + rng.below(2 * sojourn), key, ev);
            }
        }
        samples.push(t0.elapsed().as_nanos() as f64 / popped as f64);
        std::hint::black_box(&s);
    }
    median(samples)
}

/// Threaded-executor runs in a traced run of a sharded workload.
const THREADED_RUNS: usize = 3;

/// One untraced run of a sharded workload on the threaded executor:
/// `(run seconds, digest)`.
fn run_threaded(w: Workload, seed: u64) -> (f64, u64) {
    let mut s = w.setup(seed, w.shards(), &mut |a| a);
    if let Sim::Sharded(f) = &mut s.sim {
        f.set_mode(ExecMode::Threaded);
    }
    let t0 = Instant::now();
    s.sim.run_until(w.horizon());
    (t0.elapsed().as_secs_f64(), s.sim.stats().digest())
}

/// Epochs the fabric's conservative schedule runs to reach `until`: the
/// first window ends at `lookahead - 1`, each later one `lookahead` on.
fn epochs(lookahead: Time, until: Time) -> u64 {
    let mut target = (lookahead - 1).min(until);
    let mut n = 1;
    while target < until {
        target = target.saturating_add(lookahead).min(until);
        n += 1;
    }
    n
}

pub fn traced(w: Workload, seed: u64, seconds: f64, out: &mut Report) {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let want = w.pinned_digest(seed);
    let mut plain = Vec::new();
    let mut runs = Vec::new();
    let mut reference = RefLoop::new();
    let mut ref_units = Vec::new();
    // Alternate untraced and traced runs so both see the same machine.
    while runs.is_empty() || started.elapsed() < budget {
        let Some(p) = out.attempt(|| run_once(w, seed, w.shards())) else { return };
        out.check_digest(w.name(), p.digest, want.unwrap_or(p.digest));
        let Some(t) = out.attempt(|| traced_once(w, seed)) else { return };
        out.check_digest(&format!("{} traced", w.name()), t.stats.digest(), p.digest);
        plain.push(p);
        runs.push(t);
        ref_units.push(reference.unit());
    }
    let untraced_run_s = median(plain.iter().map(|p| p.run_s).collect());
    let run_s = median(runs.iter().map(|t| t.run_s).collect());
    let host_s = median(runs.iter().map(|t| t.host_s).collect());
    let last = runs.last().expect("at least one traced run");
    let st = last.stats;
    let hops = st.frames_delivered as f64;

    // Fabric: a windowed 1-shard reference run of the sharded workload
    // gives both the speed-up and the pending depth; a few runs on the
    // threaded executor show what parallel shards would give.
    let (depth, speedup, threaded_speedup, fabric_setup_s) = if w.shards() > 1 {
        let mut depth = Depth::default();
        let reference = out.attempt(|| {
            let mut s = w.setup(seed, 1, &mut |a| a);
            let run_s = run_sampled(&mut s.sim, w.horizon(), &mut depth);
            (run_s, s.sim.stats().digest())
        });
        let Some((ref_s, ref_digest)) = reference else { return };
        out.check_digest(&format!("{} at 1 shard", w.name()), ref_digest, st.digest());
        let mut threaded = Vec::new();
        for _ in 0..THREADED_RUNS {
            let Some((run_s, digest)) = out.attempt(|| run_threaded(w, seed)) else { return };
            out.check_digest(&format!("{} threaded", w.name()), digest, st.digest());
            threaded.push(run_s);
        }
        let fsetup = median(runs.iter().map(|t| t.fabric_setup_s).collect());
        (depth, ref_s / untraced_run_s, ref_s / median(threaded), fsetup)
    } else {
        (last.depth, 1.0, 1.0, 0.0)
    };

    let Some(switch_ns) = out.attempt(|| replay_switch(w, seed, &last.rcp)) else { return };
    let sim_ns_per_event = w.horizon() as f64 / st.events_processed.max(1) as f64;
    let Some(sched_ns) = out.attempt(|| replay_scheduler(depth.mean(), sim_ns_per_event, seed))
    else {
        return;
    };

    let switch_rx = st.frames_delivered - last.host_rx;
    let switch_est_s = switch_ns * switch_rx as f64 * 1e-9;
    let sched_est_s = sched_ns * st.events_processed as f64 * 1e-9;
    let rest_s = run_s - host_s - switch_est_s - sched_est_s;
    let plan_lookups = (st.plan_cache_hits + st.plan_cache_misses).max(1) as f64;
    let (lookahead, n_epochs, imbalance) = match &last.fabric {
        Some((la, events)) => {
            let mean = events.iter().sum::<u64>() as f64 / events.len() as f64;
            let max = events.iter().copied().max().unwrap_or(0) as f64;
            (*la as f64, epochs(*la, w.horizon()) as f64, max / mean)
        }
        None => (0.0, 0.0, 1.0),
    };
    let rcp = &last.rcp;

    out.metric(
        "hops_per_s",
        median(plain.iter().map(|p| p.frames as f64 / p.run_s).collect()),
        "frame-hops/s",
    );
    out.metric("ref.unit_s", median(ref_units), "s");
    out.metric("run_s", run_s, "s");
    out.metric("trace_overhead", run_s / untraced_run_s, "ratio");
    out.metric("sched.pending_mean", depth.mean(), "events");
    out.metric("sched.pending_max", depth.max as f64, "events");
    out.metric("sched.replay_ns_per_event", sched_ns, "ns/event");
    out.metric("sched.est_s", sched_est_s, "s");
    out.metric("sched.share", sched_est_s / run_s, "share");
    out.metric("net.events_per_hop", st.events_processed as f64 / hops, "events/hop");
    out.metric(
        "net.rx_batch_mean",
        st.rx_batch_frames as f64 / st.rx_batches.max(1) as f64,
        "frames",
    );
    out.metric("net.pool_retained", st.pool_retained as f64, "buffers");
    out.metric("net.rest_s", rest_s, "s");
    out.metric("net.rest_share", rest_s / run_s, "share");
    out.metric("alloc.sim_per_hop", last.allocs.sim as f64 / hops, "allocs/hop");
    out.metric("switch.rx_frames", switch_rx as f64, "frames");
    out.metric("switch.plan_hit_ratio", st.plan_cache_hits as f64 / plan_lookups, "share");
    out.metric("switch.plan_misses", st.plan_cache_misses as f64, "count");
    out.metric("switch.plan_evictions", st.plan_cache_evictions as f64, "count");
    out.metric("switch.drops_queue_full", st.drops_queue_full as f64, "count");
    out.metric("switch.drops_no_route", st.drops_no_route as f64, "count");
    out.metric("switch.drops_ttl_expired", st.drops_ttl_expired as f64, "count");
    out.metric("switch.drops_malformed", st.drops_malformed as f64, "count");
    out.metric("switch.drops_policy", st.drops_policy as f64, "count");
    out.metric("switch.replay_ns_per_frame", switch_ns, "ns/frame");
    out.metric("switch.est_s", switch_est_s, "s");
    out.metric("switch.share", switch_est_s / run_s, "share");
    out.metric("host.calls", last.host_calls as f64, "count");
    out.metric("host.ns_per_call", host_s * 1e9 / last.host_calls.max(1) as f64, "ns/call");
    out.metric("host.s", host_s, "s");
    out.metric("host.share", host_s / run_s, "share");
    out.metric("alloc.host_per_hop", last.allocs.host as f64 / hops, "allocs/hop");
    out.metric("shim.stamped_frac", rcp.stamped as f64 / last.host_tx.max(1) as f64, "share");
    out.metric("shim.parse_failures", rcp.parse_failures as f64, "count");
    out.metric(
        "harness.probe_bytes_frac",
        rcp.probe_bytes as f64 / (rcp.probe_bytes + rcp.data_bytes).max(1) as f64,
        "share",
    );
    out.metric("fabric.lookahead_ns", lookahead, "ns");
    out.metric("fabric.epochs", n_epochs, "count");
    out.metric("fabric.shard_event_imbalance", imbalance, "ratio");
    out.metric("fabric.setup_s", fabric_setup_s, "s");
    out.metric("fabric.speedup", speedup, "ratio");
    out.metric("fabric.threaded_speedup", threaded_speedup, "ratio");

    let shards = w.shards();
    println!(
        "# {}: seed {seed}, {} traced + {} untraced runs, {} shard(s), setup {:.4} s",
        w.name(),
        runs.len(),
        plain.len(),
        shards,
        median(runs.iter().map(|t| t.setup_s).collect()),
    );
    println!(
        "# ledger: host.s {host_s:.4} + switch.est_s {switch_est_s:.4} + sched.est_s \
         {sched_est_s:.4} + net.rest_s {rest_s:.4} = run_s {run_s:.4} (trace_overhead {:.3})",
        run_s / untraced_run_s,
    );
}
