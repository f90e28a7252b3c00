//! Multi-process soak of the shard fabric (E16): a correctness test. It
//! reports no performance figures — those come from `benchmark/`
//! (`fabric-n12`).
//!
//! One binary, two roles, selected by `--shard`:
//!
//! * **Orchestrator** (default): spawns M shard *processes* by re-execing
//!   itself, connects a [`sbgt_net::FabricRouter`] to them, and drives a
//!   seeded open-loop Poisson specimen stream (`sbgt_sim::traffic`)
//!   through the wire path — client-side cohort formation, consistent-hash
//!   placement, and a **mid-soak drain** of one shard whose live cohorts
//!   relocate by `SBGTCKPT` checkpoint handoff. Ends by asserting the
//!   specimen ledger balances exactly (generated = accepted + shed,
//!   accepted = classified — nothing lost, including across the drain)
//!   and that the drain relocated at least one cohort.
//! * **Shard** (`--shard`): binds a [`sbgt_net::ShardServer`] on an
//!   ephemeral port, prints `ADDR <addr>` on stdout for the parent, and
//!   serves until the orchestrator's shutdown verb or until its stdin — a
//!   pipe only the orchestrator holds — closes.
//!
//! Shard children run with `SBGT_TRACE=spans`, and the orchestrator
//! scrapes every process through [`sbgt_net::FleetScraper`] (once right
//! after the drain, once at the end), writing one merged Chrome trace
//! and one fleet Prometheus page to `target/obs/`. The run then asserts
//! the E16 observability bar: the trace validates with spans from every
//! shard process, at least one relocated cohort is stitched across two
//! processes under its deterministic per-cohort trace id, and the
//! fleet-merged round-latency histogram equals the sum of the individual
//! shard scrapes.
//!
//! Options: `--shards`, `--specimens`, `--seed`, and `--smoke`, which
//! shrinks the run to the `make soak-smoke` gate (3 shards, a few
//! thousand unpaced specimens, plus a shed-rate bound) — well under a
//! second.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use sbgt_engine::obs::{parse_prometheus, validate_chrome_trace, NO_COHORT};
use sbgt_engine::{trace_id_for_cohort, EngineConfig, SharedEngine};
use sbgt_net::{FabricConfig, FabricRouter, FleetScraper, HashRing, ShardServer};
use sbgt_service::{CohortSpec, ServiceConfig, Specimen, TenantSpec};
use sbgt_sim::traffic::{generate_arrivals, Arrival, TrafficConfig};

/// Specimens per cohort, formed router-side.
const BATCH: usize = 12;

/// Service workers and live-cohort cap of each shard.
const WORKERS: usize = 1;
const MAX_LIVE: usize = 64;

/// Full-mode arrival rate of the open-loop stream. Whether it overloads
/// the fabric depends on the host — it did on the one-core host it was
/// picked on, while the two-vCPU reference host sheds 0.3–2 % under it —
/// and the ledger accounts for shed specimens either way. Smoke submits
/// unpaced.
const RATE: f64 = 45_000.0;

/// Cohorts of the handoff burst, placed back to back on the drain victim
/// right before it drains: as many as it may hold, so the burst sheds
/// nothing by itself, and placed several times faster than one worker
/// classifies them, so most are still live when the drain lands (25 to
/// 64 of 64 over 400 smoke runs, half of them beside a busy neighbour).
/// Spread over the ring the same burst builds no backlog — one
/// synchronous router cannot outrun three or four shard workers — and
/// 17 of 100 smoke runs drained a victim with nothing left to hand off.
const HANDOFF_BURST_COHORTS: usize = MAX_LIVE;

/// Ids of the burst's cohorts start here, far above any id the router's
/// own sequence reaches.
const BURST_ID_BASE: u64 = 1 << 40;

/// Completed reports are collected every this many submissions, which
/// bounds what a shard buffers between polls.
const HARVEST_EVERY: usize = 8192;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if has(&args, "--shard") {
        run_shard()
    } else {
        run_orchestrator(&args)
    };
    if let Err(e) = result {
        eprintln!("soak: {e}");
        std::process::exit(1);
    }
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------- shard --

/// Child role: one shard server process. The ephemeral bind address goes
/// to the parent over stdout; everything else is the wire protocol.
fn run_shard() -> io::Result<()> {
    let engine = SharedEngine::new(EngineConfig::default().with_threads(2));
    let config = ServiceConfig {
        workers: WORKERS,
        batch_size: BATCH,
        max_live_cohorts: MAX_LIVE,
        dense_threshold: BATCH + 1,
        // Two-lab QoS scenario matching the traffic mix: lab 0 has twice
        // the weight of lab 1, so WFQ (not FIFO) arbitrates under load.
        tenants: vec![TenantSpec::weighted(0, 2), TenantSpec::weighted(1, 1)],
        ..ServiceConfig::default()
    };
    let server = ShardServer::bind("127.0.0.1:0", engine, config)?;
    println!("ADDR {}", server.local_addr());
    io::stdout().flush()?;
    std::thread::Builder::new()
        .name("stdin-watch".to_string())
        .spawn(|| {
            let mut sink = [0u8; 64];
            let mut stdin = io::stdin();
            // Data is ignored; end of file (or a broken pipe) means the
            // orchestrator is gone, however it went.
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            std::process::exit(0);
        })?;
    server.join()
}

/// A shard child that cannot outlive the orchestrator: dropping the guard
/// kills and reaps it, and the child exits by itself when its stdin
/// reaches end of file, which covers an orchestrator killed outright.
struct ShardChild {
    id: u32,
    child: Child,
    /// Held open for the child's lifetime; never written.
    _stdin: ChildStdin,
}

impl ShardChild {
    /// Re-exec this binary in the shard role and read the address it
    /// bound from the first line of its stdout.
    fn spawn(id: u32) -> io::Result<(ShardChild, SocketAddr)> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--shard")
            // Span-level tracing in every shard process: the fleet
            // scrape stitches these into one cross-process trace.
            // Trace ids are pure functions of cohort ids, so this
            // changes nothing about what the shards compute.
            .env("SBGT_TRACE", "spans")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("child stdin piped");
        let stdout = child.stdout.take().expect("child stdout piped");
        // From here on the guard owns the child, error paths included.
        let shard = ShardChild {
            id,
            child,
            _stdin: stdin,
        };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                io::Error::other(format!("shard did not announce its address: {line:?}"))
            })?;
        Ok((shard, addr))
    }

    /// Wait for a child that was told to shut down over the wire.
    fn wait_exit(mut self) -> io::Result<()> {
        let status = self.child.wait()?;
        check(
            status.success(),
            &format!("shard {} exited with {status}", self.id),
        )
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        // No-ops on a child that already exited and was reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// --------------------------------------------------------- orchestrator --

struct Opts {
    shards: u32,
    specimens: usize,
    seed: u64,
    smoke: bool,
}

impl Opts {
    fn from_args(args: &[String]) -> Opts {
        let smoke = has(args, "--smoke");
        Opts {
            shards: parse(args, "--shards", if smoke { 3 } else { 4 }),
            specimens: parse(args, "--specimens", if smoke { 3_000 } else { 1_000_000 }),
            seed: parse(args, "--seed", 0x50AA_u64),
            smoke,
        }
    }
}

fn run_orchestrator(args: &[String]) -> io::Result<()> {
    let opts = Opts::from_args(args);
    let shards = (0..opts.shards)
        .map(ShardChild::spawn)
        .collect::<io::Result<Vec<_>>>()?;
    let shard_addrs: Vec<(u32, SocketAddr)> =
        shards.iter().map(|(s, addr)| (s.id, *addr)).collect();
    let fabric_config = FabricConfig {
        batch_size: BATCH,
        base_seed: opts.seed,
        ..FabricConfig::default()
    };
    let mut router = FabricRouter::connect(&shard_addrs, &fabric_config)?;
    let shard_ids: Vec<u32> = shard_addrs.iter().map(|&(id, _)| id).collect();

    let rate = if opts.smoke { 1e6 } else { RATE };
    eprintln!(
        "soak: {} shards up, {} specimens at {rate:.0}/s (seed {:#x})",
        opts.shards, opts.specimens, opts.seed
    );
    let arrivals = generate_arrivals(&TrafficConfig::two_tenant(
        rate,
        opts.specimens,
        0.5,
        opts.seed,
    ));

    // Fleet telemetry accumulator: polled right after the drain and once
    // at the end, so accumulation stays bounded by the shards' span-ring
    // capacity even on the 1M-specimen full run.
    let mut scraper = FleetScraper::new();
    let start = Instant::now();
    let mut classified: u64 = 0;

    // Halfway through, the highest shard id drains out of the fabric; its
    // live cohorts relocate by checkpoint handoff and finish elsewhere.
    // The burst precedes the drain directly — no probe of the victim in
    // between, whose round trip the victim could finish under.
    let victim = *shard_ids.last().expect("at least one shard");
    let (before, after) = arrivals.split_at(opts.specimens / 2);
    let (paced, burst) =
        before.split_at(before.len().saturating_sub(HANDOFF_BURST_COHORTS * BATCH));
    feed(&mut router, paced, start, &mut classified)?;
    // The router's ring, rebuilt here to pick ids it places on the victim.
    let mut ring = HashRing::new(fabric_config.vnodes);
    for &id in &shard_ids {
        ring.add_shard(id);
    }
    let victim_ids = (BURST_ID_BASE..).filter(|&id| ring.shard_for(id) == Ok(victim));
    for (cohort, id) in burst.chunks(BATCH).zip(victim_ids) {
        let specimens: Vec<Specimen> = cohort.iter().map(specimen).collect();
        let spec = CohortSpec::from_specimens(id, opts.seed, &specimens);
        router.place(spec.with_tenant(cohort[0].tenant))?;
    }
    do_drain(&mut router, &mut scraper, victim, start, &mut classified)?;
    feed(&mut router, after, start, &mut classified)?;
    router.flush_all()?;

    // Drain-to-empty: every accepted specimen must come back classified.
    let deadline = start + Duration::from_secs(if opts.smoke { 120 } else { 900 });
    loop {
        classified += harvest(&mut router)?;
        if classified >= router.counters().accepted_specimens {
            break;
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "soak stalled: {classified} of {} accepted specimens classified",
                router.counters().accepted_specimens
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let counters = router.counters();

    // --- the soak's invariants -------------------------------------------
    check(
        counters.accepted_specimens + counters.shed_specimens == opts.specimens as u64,
        &format!(
            "specimen ledger must balance: {} accepted + {} shed != {} generated",
            counters.accepted_specimens, counters.shed_specimens, opts.specimens
        ),
    )?;
    check(
        classified == counters.accepted_specimens,
        &format!(
            "zero-loss violated: {classified} classified != {} accepted",
            counters.accepted_specimens
        ),
    )?;
    check(
        counters.relocated_cohorts >= 1,
        "mid-soak drain relocated no cohorts — the handoff path went unexercised",
    )?;
    let shed_rate = counters.shed_specimens as f64 / opts.specimens as f64;
    if opts.smoke {
        check(
            shed_rate <= 0.5,
            &format!("smoke shed-rate bound exceeded: {shed_rate:.3} > 0.5"),
        )?;
    }

    // Final fleet scrape (adoption marks, post-drain rounds) and the E16
    // observability bar, while every shard process is still answering.
    scraper.poll(&mut router)?;
    check_fleet_obs(&scraper, &shard_ids)?;

    router.shutdown_all()?;
    for (shard, _) in shards {
        shard.wait_exit()?;
    }

    println!(
        "{}: OK — {classified} specimens classified, none lost, shed rate {shed_rate:.3}, \
         {} cohorts relocated by the drain of shard {victim}",
        if opts.smoke { "soak-smoke" } else { "soak" },
        counters.relocated_cohorts
    );
    Ok(())
}

fn check(ok: bool, msg: &str) -> io::Result<()> {
    if ok {
        Ok(())
    } else {
        Err(io::Error::other(msg.to_string()))
    }
}

fn specimen(arrival: &Arrival) -> Specimen {
    Specimen {
        risk: arrival.risk,
        infected: arrival.infected,
    }
}

/// Submit `arrivals` on their open-loop schedule, counted from `start`,
/// folding the reports collected on the way into the classified tally.
fn feed(
    router: &mut FabricRouter,
    arrivals: &[Arrival],
    start: Instant,
    classified: &mut u64,
) -> io::Result<()> {
    for (i, arrival) in arrivals.iter().enumerate() {
        let now = start.elapsed();
        if arrival.at > now {
            std::thread::sleep(arrival.at - now);
        }
        router.submit(arrival.tenant, specimen(arrival))?;
        if (i + 1) % HARVEST_EVERY == 0 {
            *classified += harvest(router)?;
        }
    }
    Ok(())
}

/// Drain `victim` out of the fabric, folding its already-finished reports
/// into the classified tally; the live cohorts it hands off show in the
/// router's `relocated_cohorts`.
///
/// Scrapes the fleet right after the handoff: the victim's span rings
/// persist on its (retired but still answering) server, and the
/// survivors' adoption marks are still in their rings — on the full run
/// those marks would wrap out long before the end-of-run scrape. The
/// scrape must not run *before* `drain_shard`: the extra round trips
/// would give the victim time to finish the backlog the handoff burst
/// built, making the handoff vacuous.
fn do_drain(
    router: &mut FabricRouter,
    scraper: &mut FleetScraper,
    victim: u32,
    start: Instant,
    classified: &mut u64,
) -> io::Result<()> {
    let recovered = router.drain_shard(victim)?;
    scraper.poll(router)?;
    *classified += recovered.iter().map(|r| r.subjects as u64).sum::<u64>();
    eprintln!(
        "soak: drained shard {victim} at {:.1}s — {} live cohorts handed off, \
         {} finished reports recovered",
        start.elapsed().as_secs_f64(),
        router.counters().relocated_cohorts,
        recovered.len()
    );
    Ok(())
}

/// Merge the accumulated shard exports into the two fleet artifacts —
/// one Chrome trace, one Prometheus page, both under `target/obs/` — and
/// hold them to the soak's observability invariants: the merged trace
/// validates with spans from **every** shard process, at least one
/// relocated cohort left spans on two processes stitched under its
/// deterministic per-cohort trace id, and the fleet-merged round-latency
/// histogram equals the sum of the individual shard scrapes.
fn check_fleet_obs(scraper: &FleetScraper, shard_ids: &[u32]) -> io::Result<()> {
    let trace = scraper.render_chrome_trace();
    let summary = validate_chrome_trace(&trace).map_err(io::Error::other)?;
    check(
        summary.processes == shard_ids.len(),
        &format!(
            "fleet trace names {} processes, expected {}",
            summary.processes,
            shard_ids.len()
        ),
    )?;

    // Which shards recorded spans for which cohorts? The drained victim's
    // live cohorts must show up on it *and* on whichever shard adopted
    // their checkpoints.
    let mut seen: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for &shard in shard_ids {
        for event in scraper.shard_events(shard) {
            if event.meta.cohort != NO_COHORT {
                seen.entry(event.meta.cohort).or_default().insert(shard);
            }
        }
    }
    let stitched: Vec<u64> = seen
        .iter()
        .filter(|(_, shards)| shards.len() >= 2)
        .map(|(&cohort, _)| cohort)
        .collect();
    check(
        !stitched.is_empty(),
        "no cohort left spans on two processes — the relocation went untraced",
    )?;
    let wanted = format!("{:016x}", trace_id_for_cohort(stitched[0]));
    check(
        trace.contains(&wanted),
        &format!("merged trace is missing stitched trace id {wanted}"),
    )?;

    let page = scraper.render_prometheus();
    parse_prometheus(&page).map_err(io::Error::other)?;
    let per_shard: u64 = shard_ids
        .iter()
        .filter_map(|&s| scraper.shard_hist(s, "sbgt_service_round_latency_us"))
        .map(|h| h.count())
        .sum();
    let merged = scraper
        .merged_hists()
        .into_iter()
        .find(|h| h.name == "sbgt_service_round_latency_us" && h.labels.is_empty())
        .map_or(0, |h| h.hist.count());
    check(per_shard > 0, "no shard exported round-latency samples")?;
    check(
        merged == per_shard,
        &format!(
            "fleet histogram merge diverged: merged count {merged} != \
             sum of shard scrapes {per_shard}"
        ),
    )?;

    std::fs::create_dir_all("target/obs")?;
    std::fs::write("target/obs/fleet_trace.json", &trace)?;
    std::fs::write("target/obs/fleet_scrape.prom", &page)?;
    eprintln!(
        "soak: fleet obs OK — {} spans from {} processes, {} cohort(s) \
         stitched across shards; wrote target/obs/fleet_trace.json and \
         target/obs/fleet_scrape.prom",
        scraper.total_events(),
        summary.processes,
        stitched.len()
    );
    Ok(())
}

/// Pull completed reports off every shard, returning classified specimens.
fn harvest(router: &mut FabricRouter) -> io::Result<u64> {
    Ok(router
        .poll_reports()?
        .iter()
        .map(|r| r.subjects as u64)
        .sum())
}
