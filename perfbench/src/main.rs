//! Host-time benchmark of the tmk simulator and the real-thread DSM
//! service.
//!
//! One process does one thing (see [`Mode`]), most often one workload
//! call, and prints one JSON object on the last line of its standard
//! output: the call's host times, peak memory and simulated outputs, and
//! the spans of what it timed. A fresh process per call keeps every call
//! cold, as a suite job is: memory an earlier call freed is not reused.
//! `run.py` builds this program, runs it as many times as a measurement
//! needs, checks the outputs against golden records and reduces the samples
//! to the metrics `BENCHMARK.json` names.
//!
//! ```text
//! tmk-perfbench --workload sor-as128 --seed 1 --mode call
//! ```

mod probes;
mod spans;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tmk_bench::driver::WorkloadSpec;
use tmk_core::runtime::ChannelFaults;
use tmk_core::service::{run_service, ServiceConfig, ServiceOutcome};
use tmk_machines::{Json, Platform, RunReport};
use tmk_parmacs::Workload as _;
use tmk_trace::Category;

use probes::Rng;
use spans::Spans;

/// The service's client-plan seed. Fixed, so the fault-free tenant
/// checksums the outputs are checked against stay valid; `--seed` varies
/// the channel-fault pattern instead.
const SERVICE_PLAN_SEED: u64 = 0x5e71_ce00;

/// Service start-ups per `--mode startup` process. One start-up takes a
/// few milliseconds, mostly thread hand-offs, and a lone one varies by
/// several times with how idle the cores were; back to back, the median
/// of many is steady.
const STARTUP_CALLS: usize = 41;

/// Admission windows of the `service-n2` horizon.
const SERVICE_WINDOWS: u64 = 800;

#[derive(Clone, Copy)]
enum Workload {
    SorAs128,
    MwaterAs64,
    SorAh32,
    ServiceN2,
}

/// Nodes, page size and shared-segment pages at which the layer probes
/// run for a workload.
struct Shape {
    nodes: usize,
    page_size: usize,
    pages: usize,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "sor-as128" => Workload::SorAs128,
            "mwater-as64" => Workload::MwaterAs64,
            "sor-ah32" => Workload::SorAh32,
            "service-n2" => Workload::ServiceN2,
            _ => return None,
        })
    }

    /// The simulated application and platform (`None` for the service).
    fn sim(self) -> Option<(WorkloadSpec, Platform)> {
        let mwater = WorkloadSpec::Water {
            modified: true,
            tiny: false,
        };
        match self {
            Workload::SorAs128 => Some((WorkloadSpec::SorSmall, Platform::as_sim(128))),
            Workload::MwaterAs64 => Some((mwater, Platform::as_sim(64))),
            Workload::SorAh32 => Some((WorkloadSpec::SorSmall, Platform::ah(32))),
            Workload::ServiceN2 => None,
        }
    }

    fn shape(self) -> Shape {
        let sor_pages = tmk_apps::sor::Sor::small().segment_bytes() / 4096;
        match self {
            Workload::SorAs128 => Shape {
                nodes: 128,
                page_size: 4096,
                pages: sor_pages,
            },
            Workload::MwaterAs64 => Shape {
                nodes: 64,
                page_size: 4096,
                pages: tmk_apps::water::Water::paper(tmk_apps::water::WaterMode::Modified)
                    .segment_bytes()
                    / 4096,
            },
            Workload::SorAh32 => Shape {
                nodes: 32,
                page_size: 4096,
                pages: sor_pages,
            },
            // The service's layout: one 256-byte-page region per tenant
            // plus the counter page.
            Workload::ServiceN2 => {
                let cfg = service_config(SERVICE_WINDOWS);
                Shape {
                    nodes: cfg.nodes,
                    page_size: 256,
                    pages: cfg.tenants * (cfg.keys_per_tenant * 8).div_ceil(256) + 1,
                }
            }
        }
    }
}

fn service_config(windows: u64) -> ServiceConfig {
    ServiceConfig {
        nodes: 2,
        tenants: 4,
        keys_per_tenant: 64,
        windows,
        window_us: 1_000,
        offered_per_window: 16,
        zipf_milli: 900,
        queue_cap: 256,
        batch_cap: 1024,
        seed: SERVICE_PLAN_SEED,
        solo: None,
    }
}

/// 1% drops, 1% 200 µs delays and the canonical crash (node 1, epoch 1,
/// first operation), on a fault pattern drawn from `seed`.
fn service_faults(seed: u64) -> ChannelFaults {
    ChannelFaults::seeded(seed)
        .drop_rate(0.01)
        .delay_rate(0.01, 200)
        .crash(1, 1, 1)
}

/// A `kB` field of `/proc/self/status` (`VmRSS:`, `VmHWM:`).
pub fn vm_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one workload call produced. A process holds one or two, so the
/// variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Produced {
    Sim(tmk_machines::Outcome<f64>),
    Service(ServiceOutcome),
}

/// One workload call, timed from outside.
struct Call {
    wall_s: f64,
    /// Host seconds of the workload itself: the engine's `host_ms` for a
    /// simulation; for the service, the CPU seconds (user + sys, all
    /// threads) the process spent in the `run_service` call.
    run_s: f64,
    produced: Result<Produced, String>,
}

impl Call {
    fn report(&self) -> Option<&RunReport> {
        match &self.produced {
            Ok(Produced::Sim(o)) => Some(&o.report),
            _ => None,
        }
    }

    fn service(&self) -> Option<&ServiceOutcome> {
        match &self.produced {
            Ok(Produced::Service(o)) => Some(o),
            _ => None,
        }
    }

    /// The call's outputs as `run.py` checks them against the golden
    /// record, plus its host-side samples.
    fn to_json(&self) -> Json {
        let j = Json::obj()
            .set("wall_s", self.wall_s)
            .set("run_s", self.run_s);
        match &self.produced {
            Err(e) => j.set("ok", false).set("error", e.as_str()),
            Ok(Produced::Sim(o)) => j
                .set("ok", true)
                .set("setup_s", self.wall_s - self.run_s)
                .set("cycles", o.report.cycles)
                .set(
                    "proc_cycles",
                    Json::Arr(
                        o.report
                            .proc_cycles
                            .iter()
                            .map(|&c| Json::from(c))
                            .collect(),
                    ),
                )
                .set("checksum", o.results.iter().sum::<f64>()),
            Ok(Produced::Service(o)) => {
                let r = &o.report;
                j.set("ok", true)
                    .set(
                        "tenant_checksums",
                        Json::Arr(r.tenants.iter().map(|t| Json::from(t.checksum)).collect()),
                    )
                    .set(
                        "completed",
                        r.tenants.iter().map(|t| t.completed).sum::<u64>(),
                    )
                    .set("shed", r.total_shed)
                    .set("crashes", r.crashes)
                    .set("rollbacks", r.rollbacks)
                    .set("epochs", r.epochs)
            }
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic (non-string payload)".to_string())
}

/// CPU seconds (user + sys, every thread, ended ones too) this process
/// has used so far: fields 14 and 15 of `/proc/self/stat`, in clock ticks
/// of 10 ms (Linux fixes the ticks user space sees at 100 a second).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("a /proc/self/stat line") + 1..];
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no field {n} in /proc/self/stat"))
    };
    (field(14) + field(15)) / 100.0
}

/// Times `f` from outside, catching a panic as a failed call.
fn timed(f: impl FnOnce() -> Produced) -> Call {
    let (t, cpu0) = (Instant::now(), process_cpu_s());
    let produced = catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_text(p.as_ref()));
    let wall_s = t.elapsed().as_secs_f64();
    // The service's wall time is mostly waiting on thread wake-ups and host
    // timers, which other tenants of the machine stretch; its CPU time is
    // what the code costs.
    let run_s = match &produced {
        Ok(Produced::Sim(o)) => o.report.host_ms / 1e3,
        _ => process_cpu_s() - cpu0,
    };
    Call {
        wall_s,
        run_s,
        produced,
    }
}

/// One untraced call of the workload.
fn call(w: Workload, seed: u64) -> Call {
    match w.sim() {
        Some((spec, platform)) => timed(|| Produced::Sim(spec.run(&platform))),
        None => timed(|| {
            Produced::Service(run_service(
                &service_config(SERVICE_WINDOWS),
                service_faults(seed),
            ))
        }),
    }
}

/// What one process of the benchmark does.
#[derive(Clone, Copy)]
enum Mode {
    /// One untraced workload call.
    Call,
    /// [`STARTUP_CALLS`] service start-ups in a row: the service on an
    /// empty horizon, fault-free.
    Startup,
    /// One call with the cycle ledger and the op trace armed (for the
    /// service, which has no in-program tracing, one plain call and one at
    /// half the horizon), and the counts its report carries.
    Traced,
    /// The reference kernel (see [`probes::reference_kernel`]).
    Reference,
    /// The layer probes at the workload's shape. `Cluster::new` runs first,
    /// while the process is cold, so its time and memory include the page
    /// faults a suite job pays.
    Probes {
        /// Mean DSM message size the network probe sends.
        msg_bytes: usize,
        /// Mean share of a page a diff covers, for the diff probe.
        diff_density: f64,
    },
}

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    fn num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{flag} {v}: {e}"))
    }
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = num(get("--seed")?, "--seed")?;
    let mode = match get("--mode")? {
        "call" => Mode::Call,
        "startup" if workload.sim().is_none() => Mode::Startup,
        "traced" => Mode::Traced,
        "reference" => Mode::Reference,
        "probes" => {
            let diff_density: f64 = num(get("--diff-density")?, "--diff-density")?;
            if !(0.0..=1.0).contains(&diff_density) {
                return Err(format!("--diff-density {diff_density} is not in [0, 1]"));
            }
            Mode::Probes {
                msg_bytes: num(get("--msg-bytes")?, "--msg-bytes")?,
                diff_density,
            }
        }
        m => return Err(format!("mode {m} does not apply to {name}")),
    };
    Ok(Args {
        workload,
        seed,
        mode,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tmk-perfbench: {e}");
            eprintln!(
                "usage: tmk-perfbench --workload NAME --seed N --mode MODE \
                 (MODE: call, startup, traced, reference, or probes --msg-bytes N --diff-density F)"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut out = Json::obj();
    if let Some((spec, platform)) = w.sim() {
        out = out.set("key", format!("{}|{}", spec.id(), platform.key()));
    }
    let mut spans = Spans::new();
    match args.mode {
        Mode::Call => {
            let c = spans.time("machines", "workload call", || call(w, args.seed));
            out = out.set("call", c.to_json());
        }
        Mode::Startup => {
            let samples: Vec<Json> = (0..STARTUP_CALLS)
                .map(|_| {
                    let c = spans.time("runtime", "service start-up", || {
                        timed(|| {
                            Produced::Service(run_service(
                                &service_config(0),
                                ChannelFaults::default(),
                            ))
                        })
                    });
                    Json::from(c.wall_s)
                })
                .collect();
            out = out.set("startup_s", Json::Arr(samples));
        }
        Mode::Traced => out = traced(w, args.seed, &mut spans, out),
        Mode::Reference => out = out.set("reference_s", probes::reference_kernel()),
        Mode::Probes {
            msg_bytes,
            diff_density,
        } => {
            out = out.set(
                "probes",
                probe_layers(w, args.seed, msg_bytes, diff_density, &mut spans),
            )
        }
    }
    out = out
        .set("peak_rss_mb", vm_kb("VmHWM:") / 1024.0)
        .set("spans", spans.to_json());
    println!("{}", out.render());
}

/// The traced process: see [`Mode::Traced`]. Besides the call, reports the
/// per-layer counts, the traced call's `run_s`, and for the service the
/// wall time at half the horizon.
fn traced(w: Workload, seed: u64, spans: &mut Spans, out: Json) -> Json {
    let mut ledger = [0u64; tmk_trace::NCAT];
    let mut syncs = 0u64;
    let first = match w.sim() {
        Some((spec, platform)) => spans.time("trace", "workload call (traced)", || {
            tmk_machines::set_op_trace(true);
            let c = timed(|| {
                let (o, buf) = spec.run_traced(&platform, Some(0));
                for row in buf.expect("a traced run returns its ledger").breakdown() {
                    for (sum, v) in ledger.iter_mut().zip(row) {
                        *sum += v;
                    }
                }
                syncs = o.op_trace.len() as u64;
                Produced::Sim(o)
            });
            tmk_machines::set_op_trace(false);
            c
        }),
        None => spans.time("runtime", "workload call", || call(w, seed)),
    };
    let mut out = out
        .set("call", first.to_json())
        .set("traced_run_s", first.run_s);
    let mut l = Json::obj();
    for c in Category::ALL {
        l = l.set(&format!("trace.ledger.{}", c.name()), ledger[c.index()]);
    }
    l = l.set("sim.syncs", syncs);

    let empty = RunReport::default();
    let rep = first.report().unwrap_or(&empty);
    let t = &rep.traffic;
    let d = &rep.dsm;
    let dir = rep.directory.unwrap_or_default();
    let dir_remote = dir.remote_clean_misses + dir.remote_dirty_misses;
    l = l
        .set("core.msgs", t.total_msgs())
        .set("core.bytes", t.total_bytes())
        .set("core.remote_lock_acquires", d.remote_lock_acquires)
        .set("core.barriers", d.barriers)
        .set("core.diffs_created", d.diffs_created)
        .set("core.diff_bytes", d.diff_bytes_created)
        .set("core.read_faults", d.read_faults)
        .set("core.write_faults", d.write_faults)
        .set("core.notices_received", d.notices_received)
        .set("mem.cache_hits", rep.cache.hits)
        .set("mem.cache_misses", rep.cache.misses)
        .set("mem.dir_remote_misses", dir_remote)
        .set(
            "mem.dir_accesses",
            dir.local_misses + dir_remote + dir.upgrades,
        );
    // What the probe process needs to run the network and diff probes at
    // this workload's mean message size and diff density.
    let density = d
        .diff_bytes_created
        .checked_div(d.diffs_created)
        .map_or(0.0, |b| b as f64 / w.shape().page_size as f64);
    out = out
        .set(
            "msg_bytes",
            t.total_bytes().checked_div(t.total_msgs()).unwrap_or(0),
        )
        .set("diff_density", density.min(1.0));
    let json_ms = spans.time("bench", "RunReport::to_json", || {
        let mut v: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(rep.to_json().render_pretty(2));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&mut v)
    });
    l = l.set("bench.json_ms", json_ms);

    let svc = first.service().map_or([0; 5], |o| {
        [
            o.report.epochs,
            o.report.checkpoints,
            o.report.rollbacks,
            o.reliability.retransmissions,
            o.reliability.timeouts,
        ]
    });
    l = l
        .set("runtime.epochs", svc[0])
        .set("runtime.checkpoints", svc[1])
        .set("runtime.rollbacks", svc[2])
        .set("runtime.retransmissions", svc[3])
        .set("runtime.timeouts", svc[4]);
    if first.service().is_some() {
        let half = spans.time("runtime", "service at half horizon", || {
            timed(|| {
                Produced::Service(run_service(
                    &service_config(SERVICE_WINDOWS / 2),
                    service_faults(seed),
                ))
            })
        });
        out = out.set("half_wall_s", half.wall_s);
    }
    out.set("layers", l)
}

/// The probes process: see [`Mode::Probes`].
fn probe_layers(
    w: Workload,
    seed: u64,
    msg_bytes: usize,
    diff_density: f64,
    spans: &mut Spans,
) -> Json {
    let shape = w.shape();
    let mut rng = Rng::new(seed);
    let (cl_s, cl_mb) = spans.time("core", "Cluster::new", || {
        probes::cluster_new(shape.nodes, shape.page_size, shape.pages)
    });
    // Application compute alone: the same input on the uniprocessor (for
    // the service, the same plan on one fault-free node), timed as the
    // workload's `run_s` is.
    let dec_s = spans.time("apps", "workload on one processor", || {
        let c = match w.sim() {
            Some((spec, _)) => timed(|| Produced::Sim(spec.run(&Platform::Dec))),
            None => {
                let cfg = ServiceConfig {
                    nodes: 1,
                    ..service_config(SERVICE_WINDOWS)
                };
                timed(|| Produced::Service(run_service(&cfg, ChannelFaults::default())))
            }
        };
        if let Err(e) = &c.produced {
            panic!("the one-processor run failed: {e}");
        }
        c.run_s
    });
    let sync_ns = spans.time("sim", "Ctx::sync", || probes::sync_ns(shape.nodes));
    let barrier_us = spans.time("core", "Cluster::barrier", || {
        probes::barrier_us(shape.nodes)
    });
    let lock_us = spans.time("core", "Cluster::lock remote", || {
        probes::lock_us(shape.nodes)
    });
    let vtime_ns = spans.time("core", "VTime::merge+le", || {
        probes::vtime_ns(shape.nodes, &mut rng)
    });
    let diff_ns = spans.time("core", "Diff::compute+apply", || {
        probes::diff_ns(shape.page_size, diff_density, &mut rng)
    });
    let transfer_ns = spans.time("net", "PointToPointNet::transfer", || {
        probes::transfer_ns(shape.nodes, msg_bytes, &mut rng)
    });
    let probe_ns = spans.time("mem", "DirectCache::probe", || probes::probe_ns(&mut rng));
    let snoop_ns = spans.time("mem", "SnoopBus::access", || probes::snoop_ns(&mut rng));
    let dir_ns = spans.time("mem", "Directory::access", || {
        probes::dir_access_ns(shape.nodes, &mut rng)
    });
    let counter_us = spans.time("runtime", "Dsm::run counter", probes::counter_us);
    Json::obj()
        .set("core.cluster_new_s", cl_s)
        .set("core.cluster_new_mb", cl_mb)
        .set("apps.dec_s", dec_s)
        .set("sim.sync_ns", sync_ns)
        .set("core.barrier_us", barrier_us)
        .set("core.lock_us", lock_us)
        .set("core.vtime_ns", vtime_ns)
        .set("core.diff_ns", diff_ns)
        .set("net.transfer_ns", transfer_ns)
        .set("mem.probe_ns", probe_ns)
        .set("mem.snoop_ns", snoop_ns)
        .set("mem.dir_access_ns", dir_ns)
        .set("runtime.counter_us", counter_us)
}
