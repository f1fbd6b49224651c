//! Host-time probes of single layers, timed from outside through each
//! crate's public functions. Each probe does a fixed amount of work in a
//! few batches and reports the median batch's time per operation, so one
//! slow batch (a page-fault burst, a scheduler hiccup) does not move it.

use std::hint::black_box;
use std::time::Instant;

use tmk_core::runtime::{Dsm, DsmConfig};
use tmk_core::{Cluster, Config, Diff, VTime};
use tmk_mem::{
    BusParams, CacheParams, DirectCache, Directory, DirectoryParams, LineState, Probe, SnoopBus,
};
use tmk_net::{NetParams, PointToPointNet};
use tmk_sim::CoopEngine;

use crate::{median, vm_kb};

const BATCHES: usize = 5;

/// Median over [`BATCHES`] runs of `batch` of its time per operation, in
/// nanoseconds, where one batch performs `ops` operations.
fn per_op_ns(ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&mut v)
}

/// SplitMix64: the probes' seeded input stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `tmk-sim`: host ns per `Ctx::sync` on a `CoopEngine` over an empty
/// machine with `procs` processors (engine creation included, amortized
/// over 1000 syncs per processor).
pub fn sync_ns(procs: usize) -> f64 {
    const SYNCS: u64 = 1000;
    per_op_ns(SYNCS * procs as u64, || {
        let run = CoopEngine::new((), procs).run(|ctx| {
            for _ in 0..SYNCS {
                ctx.sync(|op| op.advance(1));
            }
        });
        black_box(run.clocks);
    })
}

/// `tmk-core`: seconds and resident megabytes of
/// `Cluster::new(Config::new(nodes).segment_pages(pages))` (one sample:
/// at 128 nodes it is a second and a gigabyte).
pub fn cluster_new(nodes: usize, page_size: usize, pages: usize) -> (f64, f64) {
    let rss = vm_kb("VmRSS:");
    let t = Instant::now();
    let cluster = Cluster::new(Config::new(nodes).page_size(page_size).segment_pages(pages));
    let secs = t.elapsed().as_secs_f64();
    let mb = (vm_kb("VmRSS:") - rss) / 1024.0;
    drop(black_box(cluster));
    (secs, mb)
}

/// `tmk-core`: host µs per `Cluster::barrier` across `nodes` nodes.
pub fn barrier_us(nodes: usize) -> f64 {
    const BARRIERS: u64 = 40;
    let mut cl = Cluster::new(Config::new(nodes).segment_pages(4));
    per_op_ns(BARRIERS, || {
        for _ in 0..BARRIERS {
            cl.barrier(0);
        }
    }) / 1e3
}

/// `tmk-core`: host µs per remote lock acquire + release, the token
/// moving between node 0 and node `nodes - 1`.
pub fn lock_us(nodes: usize) -> f64 {
    const ROUNDS: u64 = 500;
    let far = nodes.max(2) - 1;
    let mut cl = Cluster::new(Config::new(nodes.max(2)).segment_pages(4));
    per_op_ns(2 * ROUNDS, || {
        for _ in 0..ROUNDS {
            cl.lock(far, 0);
            cl.unlock(far, 0);
            cl.lock(0, 0);
            cl.unlock(0, 0);
        }
    }) / 1e3
}

/// `tmk-core`: host ns per `VTime::merge` + `VTime::le` at `nodes` entries.
pub fn vtime_ns(nodes: usize, rng: &mut Rng) -> f64 {
    const OPS: u64 = 20_000;
    let mut a = VTime::zero(nodes);
    let mut b = VTime::zero(nodes);
    for i in 0..nodes {
        a.set(i, rng.below(1000) as u32);
        b.set(i, rng.below(1000) as u32);
    }
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            let mut x = a.clone();
            x.merge(black_box(&b));
            black_box(x.le(black_box(&a)));
        }
    })
}

/// `tmk-core`: host ns per `Diff::compute` + `Diff::apply` of a
/// `page_size` page with `density` of its 4-byte words changed at seeded
/// positions.
pub fn diff_ns(page_size: usize, density: f64, rng: &mut Rng) -> f64 {
    const OPS: u64 = 2_000;
    let twin: Vec<u8> = (0..page_size).map(|_| rng.next() as u8).collect();
    let mut data = twin.clone();
    let words = page_size / 4;
    let changed = ((density.clamp(0.0, 1.0) * words as f64).round() as usize).min(words);
    let mut order: Vec<usize> = (0..words).collect();
    for i in 0..changed {
        let j = i + rng.below((words - i) as u64) as usize;
        order.swap(i, j);
        data[order[i] * 4] ^= 0xff;
    }
    let mut page = twin.clone();
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            let d = Diff::compute(black_box(&twin), black_box(&data));
            d.apply(&mut page);
        }
    })
}

/// `tmk-net`: host ns per `PointToPointNet::transfer` of `bytes` bytes
/// over the AS platform's network among `hosts` endpoints.
pub fn transfer_ns(hosts: usize, bytes: usize, rng: &mut Rng) -> f64 {
    const OPS: u64 = 100_000;
    let hosts = hosts.max(2);
    let mut net = PointToPointNet::new(hosts, NetParams::atm_100mhz());
    let pairs: Vec<(usize, usize)> = (0..1024)
        .map(|_| {
            let from = rng.below(hosts as u64) as usize;
            let to = (from + 1 + rng.below(hosts as u64 - 1) as usize) % hosts;
            (from, to)
        })
        .collect();
    let mut t = 0;
    per_op_ns(OPS, || {
        for i in 0..OPS as usize {
            let (from, to) = pairs[i % pairs.len()];
            t = net.transfer(from, to, bytes, t);
        }
    })
}

/// `n` seeded line addresses below `span`.
fn lines(rng: &mut Rng, n: usize, span: u64) -> Vec<u64> {
    (0..n).map(|_| rng.below(span)).collect()
}

/// `tmk-mem`: host ns per `DirectCache::probe` (the AS and AH platforms'
/// 64 KB, 64-byte-line cache), refilling on each miss.
pub fn probe_ns(rng: &mut Rng) -> f64 {
    const OPS: u64 = 200_000;
    let mut cache = DirectCache::new(CacheParams::new(64 << 10, 64));
    let stream = lines(rng, 4096, 2048);
    per_op_ns(OPS, || {
        for i in 0..OPS as usize {
            let line = stream[i % stream.len()];
            let write = i % 4 == 0;
            if black_box(cache.probe(line, write)) != Probe::Hit {
                let state = if write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                cache.fill(line, state);
            }
        }
    })
}

/// `tmk-mem`: host ns per `SnoopBus::access` on the 8-processor SGI bus.
pub fn snoop_ns(rng: &mut Rng) -> f64 {
    const OPS: u64 = 100_000;
    let mut bus = SnoopBus::new(8, CacheParams::new(64 << 10, 32), BusParams::sgi_4d480());
    let stream = lines(rng, 4096, 4096);
    let mut t = 0;
    per_op_ns(OPS, || {
        for i in 0..OPS as usize {
            t = bus
                .access(i % 8, stream[i % stream.len()], i % 4 == 0, t)
                .done;
        }
    })
}

/// `tmk-mem`: host ns per `Directory::access` among `nodes` nodes (the AH
/// platform's directory), capped at the 64 nodes its full-map bit mask
/// holds.
pub fn dir_access_ns(nodes: usize, rng: &mut Rng) -> f64 {
    const OPS: u64 = 100_000;
    let nodes = nodes.min(64);
    let mut dir = Directory::new(
        nodes,
        CacheParams::new(64 << 10, 64),
        DirectoryParams::isca94(),
    );
    let stream = lines(rng, 4096, 4096);
    let mut t = 0;
    per_op_ns(OPS, || {
        for i in 0..OPS as usize {
            t = dir
                .access(i % nodes, stream[i % stream.len()], i % 4 == 0, t)
                .done;
        }
    })
}

/// `tmk-core::runtime`: host µs per lock-protected counter increment on a
/// 2-node real-thread `Dsm::run` (cluster start-up included, amortized
/// over 200 increments per node).
pub fn counter_us() -> f64 {
    const ROUNDS: u64 = 200;
    per_op_ns(2 * ROUNDS, || {
        let out = Dsm::run(DsmConfig::new(2).segment_pages(4), |node| {
            for _ in 0..ROUNDS {
                node.lock(0);
                let v = node.read_u64(0);
                node.write_u64(0, v + 1);
                node.unlock(0);
            }
        });
        black_box(out);
    }) / 1e3
}

/// Work that no change to the repository's crates can speed up: counting
/// into a `HashMap`, sorting a million integers, a dependent random walk
/// over 16 MB and a multiply-xor chain, about 0.2 s in all. `run.py` times
/// it just before and after every workload call and scales the call's host
/// times by it, so a host that runs slower for a while (other tenants on
/// the machine, clock changes) moves the kernel and the call together.
pub fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut r = Rng::new(7);
    let mut counts = std::collections::HashMap::new();
    for i in 0..400_000u64 {
        *counts.entry(r.below(100_000)).or_insert(0u64) += i;
    }
    let mut sorted: Vec<u64> = (0..1_000_000).map(|_| r.next()).collect();
    sorted.sort_unstable();
    let n = 1u32 << 22;
    let mut next: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        next.swap(i, r.below(i as u64 + 1) as usize);
    }
    let mut p = 0u32;
    for _ in 0..300_000 {
        p = next[p as usize];
    }
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = (x ^ (x >> 31))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i);
    }
    black_box((counts.len(), sorted[0], p, x));
    t.elapsed().as_secs_f64()
}
