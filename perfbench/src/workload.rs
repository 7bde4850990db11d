//! The benchmark workloads, built only through the public `Network`/`Fabric`
//! APIs. Every input is derived from the seed.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use tpp_apps::rcp::{RcpConfig, RcpSender, RcpSink};
use tpp_fabric::{ExecMode, Fabric, PartitionStrategy, TrafficConfig, TrafficGen, TrafficPattern};
use tpp_netsim::{Host, HostApp, NetStats, Network, NodeId, Time, TopologyBuilder, TopologySpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fat-tree k=8, every frame carries the §2.1 visibility TPP.
    DcProbe,
    /// Two k=4 sites joined by a WAN, RCP* flows, 2 shards.
    WanRcpX2,
}

pub const ALL: [Workload; 2] = [Workload::DcProbe, Workload::WanRcpX2];

/// `NetStats::digest` pinned per `(workload, seed)`. Seed 1 is the default
/// seed; seed 2 is held out. Every value was confirmed equal at 1 and 2
/// shards when pinned (`--pin` re-checks that).
const PINNED: [(Workload, u64, u64); 4] = [
    (Workload::DcProbe, 1, 0x8d74_ef55_a20c_8856),
    (Workload::DcProbe, 2, 0xf77e_0f16_2877_7703),
    (Workload::WanRcpX2, 1, 0x06bd_36dd_3bfc_9e40),
    (Workload::WanRcpX2, 2, 0xf820_e98d_671e_1ce2),
];

/// RCP* flows per direction across the WAN.
const WAN_PAIRS: usize = 8;
/// RCP* data payload (bytes).
pub const WAN_PAYLOAD: usize = 1000;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DcProbe => "dc_probe",
            Workload::WanRcpX2 => "wan_rcp_x2",
        }
    }

    /// Shards of the measured configuration. Sharded runs use the
    /// sequential executor: it runs the same epoch and exchange schedule as
    /// the threaded one (bit-identical digests) without the per-epoch
    /// barrier, whose wake-up latency on a shared 2-CPU host spread
    /// `hops_per_s` across a factor of two from run to run.
    pub fn shards(self) -> usize {
        match self {
            Workload::WanRcpX2 => 2,
            _ => 1,
        }
    }

    /// Simulated horizon of one run.
    pub fn horizon(self) -> Time {
        match self {
            Workload::DcProbe => 1_000_000,
            Workload::WanRcpX2 => 100_000_000,
        }
    }

    pub fn pinned_digest(self, seed: u64) -> Option<u64> {
        PINNED.iter().find(|&&(w, s, _)| w == self && s == seed).map(|&(_, _, d)| d)
    }

    pub fn topology(self, seed: u64) -> TopologyBuilder {
        match self {
            Workload::DcProbe => {
                TopologySpec::FatTree { k: 8 }.builder().link_mbps(10_000).delay_ns(1000).seed(seed)
            }
            Workload::WanRcpX2 => TopologySpec::MultiSite {
                sites: 2,
                site_k: 4,
                wan_delay_ns: 250_000,
                wan_delay_step_ns: 0,
                wan_mbps: 400,
                wan_site_mbps: Vec::new(),
                wan_queue_bytes: 0,
            }
            .builder()
            .link_mbps(1000)
            .delay_ns(1000)
            .seed(seed),
        }
    }

    /// `dc_probe`'s traffic.
    fn traffic(self, seed: u64) -> TrafficConfig {
        TrafficConfig {
            stop_at: self.horizon(),
            seed,
            pattern: TrafficPattern::Uniform,
            frames_per_tick: 4,
            tick_ns: 10_000,
            payload: 256,
            tpp_every: 1,
        }
    }

    pub fn rcp_config() -> RcpConfig {
        RcpConfig {
            period_ns: 1_000_000,
            rtt_ns: 600_000,
            capacity_mbps: 400.0,
            payload: WAN_PAYLOAD,
            probe_hops: 10,
            app_id: 2,
            ..RcpConfig::default()
        }
    }

    /// Build, route and install apps (each passed through `wrap`), then
    /// partition when sharded. Returns the simulation and its set-up time.
    pub fn setup(
        self,
        seed: u64,
        shards: usize,
        wrap: &mut dyn FnMut(Box<dyn HostApp>) -> Box<dyn HostApp>,
    ) -> Setup {
        let started = Instant::now();
        let mut t = self.topology(seed).build();
        let hosts = t.hosts.clone();
        let mut senders = Vec::new();
        match self {
            Workload::DcProbe => {
                let cfg = self.traffic(seed);
                let peers = Arc::new(hosts.iter().map(|h| h.0).collect::<Vec<_>>());
                let delivered = Arc::new(AtomicU64::new(0));
                for &h in &hosts {
                    let app = TrafficGen::new(cfg.clone(), peers.clone(), delivered.clone());
                    t.net.set_app(h, wrap(Box::new(app)));
                }
            }
            Workload::WanRcpX2 => {
                let mut rng = SplitMix(seed);
                let per_site = hosts.len() / 2;
                // A seeded shuffle of each site's hosts: the first half
                // send, the second half sink for the other site's senders.
                let mut sites: Vec<Vec<NodeId>> =
                    hosts.chunks(per_site).map(<[NodeId]>::to_vec).collect();
                for site in &mut sites {
                    for i in (1..site.len()).rev() {
                        site.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                let cfg = Self::rcp_config();
                for (s, site) in sites.iter().enumerate() {
                    let far = &sites[1 - s];
                    for i in 0..WAN_PAIRS {
                        let (src, dst) = (site[i], far[WAN_PAIRS + i]);
                        let dst_ip = t.net.host(dst).ip;
                        let start_at = 1_000_000 + rng.below(1_000_000);
                        let sport = 7000 + (s * WAN_PAIRS + i) as u16;
                        let app = RcpSender::new(cfg, dst_ip, sport, start_at);
                        t.net.set_app(src, wrap(Box::new(app)));
                        t.net.set_app(dst, wrap(Box::new(RcpSink::new(10_000_000))));
                        senders.push(src);
                    }
                }
            }
        }
        let (sim, fabric_setup_s) = if shards <= 1 {
            (Sim::Single(Box::new(t.net)), 0.0)
        } else {
            let f0 = Instant::now();
            let mut fabric = Fabric::new(t.net, shards, PartitionStrategy::Locality);
            fabric.set_mode(ExecMode::Sequential);
            (Sim::Sharded(fabric), f0.elapsed().as_secs_f64())
        };
        Setup { sim, hosts, senders, setup_s: started.elapsed().as_secs_f64(), fabric_setup_s }
    }
}

/// A built workload ready to run.
pub struct Setup {
    pub sim: Sim,
    pub hosts: Vec<NodeId>,
    /// RCP* sender hosts (empty for the datacenter workloads).
    pub senders: Vec<NodeId>,
    pub setup_s: f64,
    /// The `Fabric::new` part of `setup_s` (0 at 1 shard).
    pub fabric_setup_s: f64,
}

pub enum Sim {
    Single(Box<Network>),
    Sharded(Fabric),
}

impl Sim {
    pub fn run_until(&mut self, t: Time) {
        match self {
            Sim::Single(n) => n.run_until(t),
            Sim::Sharded(f) => f.run_until(t),
        }
    }

    pub fn stats(&self) -> NetStats {
        match self {
            Sim::Single(n) => n.stats,
            Sim::Sharded(f) => f.stats(),
        }
    }

    /// Downcast a host's application.
    pub fn app_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        match self {
            Sim::Single(n) => n.app_mut(node),
            Sim::Sharded(f) => f.app_mut(node),
        }
    }

    pub fn host(&self, node: NodeId) -> &Host {
        match self {
            Sim::Single(n) => n.host(node),
            Sim::Sharded(f) => f.shard_for(node).host(node),
        }
    }
}

/// `SplitMix64`: the benchmark's own seeded generator for workload inputs
/// and replay mixes.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}
