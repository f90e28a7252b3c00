//! The two front doors traffic can enter through: the in-process
//! `SurveillanceService`, and the `sbgt-net` shard fabric with its shard
//! servers running as child processes of the harness.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;

use sbgt_engine::obs::ObsConfig;
use sbgt_engine::{EngineConfig, SharedEngine};
use sbgt_net::{FabricConfig, FabricRouter, ShardServer};
use sbgt_service::{
    CohortReport, PlanCache, ServiceConfig, ServiceError, Specimen, SurveillanceService,
};

/// What happened to one submitted specimen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    Accepted,
    /// The service refused this specimen; it never reached a batch.
    ShedSpecimen,
    /// The specimen sealed a cohort client-side and a shard refused the
    /// whole cohort (its id is spent).
    ShedCohort,
}

/// Span names of a target's client-boundary calls.
pub struct CallNames {
    /// A submit that only buffers; `None` when that is not a call into
    /// the program at all.
    pub submit: Option<&'static str>,
    /// The submit that seals a cohort.
    pub seal: &'static str,
    pub poll: &'static str,
}

pub trait Target {
    const CALLS: CallNames;

    /// Closed-loop submission: waits for room rather than shedding.
    fn submit(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit>;

    /// Open-loop submission: never waits; overload sheds.
    fn offer(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit>;

    /// Reports completed since the last poll.
    fn poll(&mut self) -> io::Result<Vec<CohortReport>>;

    /// Seal every partial batch. Returns reports the call itself hands
    /// back; the rest arrive through [`Target::poll`].
    fn close(&mut self) -> io::Result<Vec<CohortReport>>;

    /// Child processes whose CPU and memory belong to this target.
    fn children(&self) -> Vec<u32>;

    /// Calls made into the program so far (wire calls for the fabric).
    fn calls(&self) -> u64;
}

/// An engine with the program's own telemetry off, whatever `SBGT_TRACE`
/// says: every pass times the program from outside.
pub fn quiet_engine(threads: usize) -> SharedEngine {
    SharedEngine::new(
        EngineConfig::default()
            .with_threads(threads)
            .with_obs(ObsConfig::off()),
    )
}

fn admit(result: Result<(), ServiceError>) -> io::Result<Admit> {
    match result {
        Ok(()) => Ok(Admit::Accepted),
        Err(ServiceError::Shed(_)) => Ok(Admit::ShedSpecimen),
        Err(other) => Err(io::Error::other(other.to_string())),
    }
}

// ------------------------------------------------------------ in-process --

pub struct ServiceTarget {
    /// `None` once closed: `drain` consumes the service.
    service: Option<SurveillanceService>,
    calls: u64,
}

impl ServiceTarget {
    /// Start a service on a fresh engine of `engine_threads` threads. A
    /// caller-owned plan cache lets the harness read `PlanCacheStats`.
    pub fn start(
        config: ServiceConfig,
        engine_threads: usize,
        cache: Option<Arc<PlanCache>>,
    ) -> io::Result<ServiceTarget> {
        let engine = quiet_engine(engine_threads);
        let service = match cache {
            Some(cache) => SurveillanceService::start_with_cache(engine, config, Some(cache)),
            None => SurveillanceService::start(engine, config),
        }
        .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(ServiceTarget {
            service: Some(service),
            calls: 0,
        })
    }

    fn service(&self) -> io::Result<&SurveillanceService> {
        self.service
            .as_ref()
            .ok_or_else(|| io::Error::other("service already closed"))
    }
}

impl Target for ServiceTarget {
    const CALLS: CallNames = CallNames {
        submit: Some("service.submit"),
        seal: "service.submit",
        poll: "service.take_completed",
    };

    fn submit(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit> {
        self.calls += 1;
        admit(self.service()?.submit_tagged(tenant, specimen))
    }

    fn offer(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit> {
        self.calls += 1;
        admit(self.service()?.try_submit_tagged(tenant, specimen))
    }

    fn poll(&mut self) -> io::Result<Vec<CohortReport>> {
        self.calls += 1;
        Ok(self
            .service
            .as_ref()
            .map_or_else(Vec::new, SurveillanceService::take_completed))
    }

    fn close(&mut self) -> io::Result<Vec<CohortReport>> {
        Ok(self
            .service
            .take()
            .map_or_else(Vec::new, SurveillanceService::drain))
    }

    fn children(&self) -> Vec<u32> {
        Vec::new()
    }

    fn calls(&self) -> u64 {
        self.calls
    }
}

// ---------------------------------------------------------------- fabric --

/// A shard server child. It cannot outlive the harness: dropping the
/// guard kills and reaps it, and the child itself exits when its stdin —
/// a pipe only the harness holds — reaches end of file, which also covers
/// a harness that is killed outright.
pub struct ShardChild {
    child: Child,
    /// Held open for the child's lifetime; never written.
    _stdin: ChildStdin,
    pub addr: SocketAddr,
}

impl ShardChild {
    /// Re-exec this binary in the shard role and read the address it
    /// bound from the first line of its stdout.
    pub fn spawn(workload: &str, base_seed: u64) -> io::Result<ShardChild> {
        let mut child = Command::new(std::env::current_exe()?)
            .args([
                "--shard",
                "--workload",
                workload,
                "--seed",
                &base_seed.to_string(),
            ])
            .env_remove("SBGT_TRACE")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("child stdin piped");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut line = String::new();
        let announced = BufReader::new(stdout).read_line(&mut line).and_then(|_| {
            line.trim()
                .strip_prefix("ADDR ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    io::Error::other(format!("shard announced {line:?}, not its address"))
                })
        });
        match announced {
            Ok(addr) => Ok(ShardChild {
                child,
                _stdin: stdin,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for a child that was told to shut down over the wire.
    fn wait_exit(mut self) -> io::Result<()> {
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("shard exited with {status}")))
        }
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        // No-ops on a child that already exited and was reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `--shard` role: serve `config` on an ephemeral loopback port until
/// the wire shutdown verb, or until stdin closes.
pub fn run_shard(config: ServiceConfig, engine_threads: usize) -> io::Result<()> {
    let server = ShardServer::bind("127.0.0.1:0", quiet_engine(engine_threads), config)?;
    println!("ADDR {}", server.local_addr());
    io::stdout().flush()?;
    std::thread::Builder::new()
        .name("stdin-watch".to_string())
        .spawn(|| {
            let mut sink = [0u8; 64];
            let mut stdin = io::stdin();
            // Data is ignored; end of file (or a broken pipe) means the
            // harness is gone.
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            std::process::exit(0);
        })?;
    server.join()
}

pub struct FabricTarget {
    /// `None` once shut down.
    router: Option<FabricRouter>,
    shards: Vec<ShardChild>,
    calls: u64,
}

impl FabricTarget {
    /// Spawn `shards` shard children for `workload` and connect a router
    /// to them, one TCP connection per shard.
    pub fn start(
        workload: &str,
        shards: u32,
        batch_size: usize,
        base_seed: u64,
    ) -> io::Result<FabricTarget> {
        let children: Vec<ShardChild> = (0..shards)
            .map(|_| ShardChild::spawn(workload, base_seed))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<(u32, SocketAddr)> = children
            .iter()
            .enumerate()
            .map(|(id, c)| (id as u32, c.addr))
            .collect();
        let router = FabricRouter::connect(
            &addrs,
            &FabricConfig {
                batch_size,
                base_seed,
                ..FabricConfig::default()
            },
        )?;
        Ok(FabricTarget {
            router: Some(router),
            shards: children,
            calls: 0,
        })
    }

    pub fn shard_addr(&self, shard: usize) -> io::Result<SocketAddr> {
        self.shards
            .get(shard)
            .map(|s| s.addr)
            .ok_or_else(|| io::Error::other(format!("no shard {shard}")))
    }

    pub fn router(&mut self) -> io::Result<&mut FabricRouter> {
        self.router
            .as_mut()
            .ok_or_else(|| io::Error::other("fabric already shut down"))
    }

    /// Drain `shard` out of the ring; its finished reports come back and
    /// its live cohorts move to the survivors.
    pub fn drain_shard(&mut self, shard: u32) -> io::Result<Vec<CohortReport>> {
        // Drain plus one handoff per surviving shard that adopts cohorts.
        self.calls += 2;
        self.router()?.drain_shard(shard)
    }

    /// Stop every shard over the wire and reap the children.
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Some(router) = self.router.take() {
            router.shutdown_all()?;
        }
        std::mem::take(&mut self.shards)
            .into_iter()
            .try_for_each(ShardChild::wait_exit)
    }

    fn place(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit> {
        let router = self.router()?;
        let shed_before = router.counters().shed_specimens;
        let placed_before = router.counters().placed_cohorts;
        router.submit(tenant, specimen)?;
        let counters = router.counters();
        if counters.shed_specimens > shed_before {
            self.calls += 1;
            Ok(Admit::ShedCohort)
        } else {
            self.calls += counters.placed_cohorts - placed_before;
            Ok(Admit::Accepted)
        }
    }
}

impl Target for FabricTarget {
    const CALLS: CallNames = CallNames {
        submit: None,
        seal: "net.place",
        poll: "net.poll",
    };

    fn submit(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit> {
        // The router's only submission is synchronous placement; a shard
        // at its live-cohort cap sheds, it never makes the caller wait.
        self.place(tenant, specimen)
    }

    fn offer(&mut self, tenant: u32, specimen: Specimen) -> io::Result<Admit> {
        self.place(tenant, specimen)
    }

    fn poll(&mut self) -> io::Result<Vec<CohortReport>> {
        self.calls += self.shards.len() as u64;
        self.router()?.poll_reports()
    }

    fn close(&mut self) -> io::Result<Vec<CohortReport>> {
        let router = self.router()?;
        let placed_before = router.counters().placed_cohorts;
        router.flush_all()?;
        let placed = router.counters().placed_cohorts - placed_before;
        self.calls += placed;
        Ok(Vec::new())
    }

    fn children(&self) -> Vec<u32> {
        self.shards.iter().map(ShardChild::pid).collect()
    }

    fn calls(&self) -> u64 {
        self.calls
    }
}
