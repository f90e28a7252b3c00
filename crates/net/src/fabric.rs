//! The shard fabric router: consistent-hash placement of cohorts across
//! shard servers, with drain/rebalance by checkpoint handoff.
//!
//! The router owns the global cohort-id sequence and forms cohorts
//! client-side (per tenant, fixed batch size), so ids stay unique across
//! shards no matter how many processes serve them — each shard's internal
//! batcher is bypassed via [`Request::PlaceCohort`]. Placement is
//! `ring.shard_for(cohort_id)`: deterministic given membership, and
//! minimally disturbed when membership changes.
//!
//! Draining a shard is a first-class rebalance: the shard freezes its live
//! cohorts at round boundaries into `SBGTCKPT` blobs, the router removes
//! it from the ring, and every blob is handed to the shard the ring now
//! assigns its cohort id — where it resumes **bit-for-bit** (the codec's
//! contract, pinned by `tests/loopback.rs`). Nothing about a cohort's
//! report depends on which shard(s) it ran on.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use sbgt_engine::obs::{
    hist_series, render_chrome_trace_processes, render_prom_samples, LaneSnapshot, ProcessTrace,
    PromSample, SpanEvent,
};
use sbgt_engine::{LogHistogram, TraceContext};
use sbgt_service::{CohortCheckpoint, CohortReport, CohortSpec, ShedReason, Specimen};

use crate::client::ShardClient;
use crate::frame::{ObsFrame, ObsHist, Request, Response};
use crate::ring::{HashRing, RingError};

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Specimens per cohort formed by the router.
    pub batch_size: usize,
    /// Base seed for cohort seed derivation (same formula as the
    /// in-process batcher, so a cohort's identity is shard-independent).
    pub base_seed: u64,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: u32,
    /// How long to keep retrying each shard connection at startup.
    pub connect_timeout: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            batch_size: 8,
            base_seed: 0x5B67,
            vnodes: crate::ring::DEFAULT_VNODES,
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// Running tallies of what the router pushed into the fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Cohorts successfully placed on a shard.
    pub placed_cohorts: u64,
    /// Specimens inside successfully placed cohorts.
    pub accepted_specimens: u64,
    /// Specimens inside cohorts a shard shed at admission.
    pub shed_specimens: u64,
    /// Cohorts relocated by drain/handoff so far.
    pub relocated_cohorts: u64,
}

/// A client-side router over a set of shard servers.
pub struct FabricRouter {
    ring: HashRing,
    clients: BTreeMap<u32, ShardClient>,
    /// Drained shards kept connected for stats/shutdown.
    retired: BTreeMap<u32, ShardClient>,
    next_cohort: u64,
    batch_size: usize,
    base_seed: u64,
    pending: BTreeMap<u32, Vec<Specimen>>,
    counters: FabricCounters,
    last_shed_reason: Option<ShedReason>,
}

impl FabricRouter {
    /// Connect to every `(shard id, address)` pair, retrying each until
    /// `config.connect_timeout` — shard processes bind asynchronously.
    pub fn connect(
        shards: &[(u32, SocketAddr)],
        config: &FabricConfig,
    ) -> io::Result<FabricRouter> {
        assert!(config.batch_size > 0, "fabric batch size must be positive");
        let mut ring = HashRing::new(config.vnodes);
        let mut clients = BTreeMap::new();
        for &(id, addr) in shards {
            let client = ShardClient::connect_retry(addr, config.connect_timeout)?;
            ring.add_shard(id);
            clients.insert(id, client);
        }
        Ok(FabricRouter {
            ring,
            clients,
            retired: BTreeMap::new(),
            next_cohort: 0,
            batch_size: config.batch_size,
            base_seed: config.base_seed,
            pending: BTreeMap::new(),
            counters: FabricCounters::default(),
            last_shed_reason: None,
        })
    }

    /// Tallies so far.
    pub fn counters(&self) -> FabricCounters {
        self.counters
    }

    /// Reason of the most recent shed, if any occurred.
    pub fn last_shed_reason(&self) -> Option<ShedReason> {
        self.last_shed_reason
    }

    /// Live (non-drained) shard ids.
    pub fn live_shards(&self) -> Vec<u32> {
        self.ring.shards()
    }

    /// Buffer one specimen on its tenant's client-side batch, placing the
    /// cohort once the batch is full.
    pub fn submit(&mut self, tenant: u32, specimen: Specimen) -> io::Result<()> {
        let batch = self.pending.entry(tenant).or_default();
        batch.push(specimen);
        if batch.len() >= self.batch_size {
            self.flush_tenant(tenant)?;
        }
        Ok(())
    }

    /// Seal and place `tenant`'s open batch, if any.
    pub fn flush_tenant(&mut self, tenant: u32) -> io::Result<()> {
        let Some(batch) = self.pending.remove(&tenant) else {
            return Ok(());
        };
        if batch.is_empty() {
            return Ok(());
        }
        let id = self.next_cohort;
        self.next_cohort += 1;
        let spec = CohortSpec::from_specimens(id, self.base_seed, &batch).with_tenant(tenant);
        self.place(spec)
    }

    /// Seal and place every open batch.
    pub fn flush_all(&mut self) -> io::Result<()> {
        let tenants: Vec<u32> = self.pending.keys().copied().collect();
        for tenant in tenants {
            self.flush_tenant(tenant)?;
        }
        Ok(())
    }

    /// Place one fully-formed cohort on the shard the ring assigns it.
    /// The request carries the cohort's deterministic [`TraceContext`]
    /// (a pure function of the cohort id — no clock, no RNG), so the
    /// wire bytes are identical whether or not tracing is enabled and
    /// the shard can stitch its spans under the router's trace.
    pub fn place(&mut self, spec: CohortSpec) -> io::Result<()> {
        let subjects = spec.n_subjects() as u64;
        let trace = Some(TraceContext::for_cohort(spec.id));
        let shard = self
            .ring
            .shard_for(spec.id)
            .map_err(|e: RingError| io::Error::other(e.to_string()))?;
        let client = self
            .clients
            .get_mut(&shard)
            .ok_or_else(|| io::Error::other(format!("no client for shard {shard}")))?;
        match client.call(&Request::PlaceCohort { spec, trace })? {
            Response::Accepted { accepted: 1, .. } => {
                self.counters.placed_cohorts += 1;
                self.counters.accepted_specimens += subjects;
                Ok(())
            }
            Response::Accepted { reason, .. } => {
                self.counters.shed_specimens += subjects;
                if reason.is_some() {
                    self.last_shed_reason = reason;
                }
                Ok(())
            }
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Collect (and clear) completed reports from every live and retired
    /// shard.
    pub fn poll_reports(&mut self) -> io::Result<Vec<CohortReport>> {
        let mut all = Vec::new();
        for client in self.clients.values_mut().chain(self.retired.values_mut()) {
            match client.call(&Request::PollReports)? {
                Response::Reports { reports } => all.extend(reports),
                Response::Error { message } => return Err(io::Error::other(message)),
                other => return Err(unexpected(&other)),
            }
        }
        all.sort_by_key(|r| r.cohort);
        Ok(all)
    }

    /// Drain `shard` out of the fabric: freeze its live cohorts, remove it
    /// from the ring, and hand each frozen cohort to the shard the
    /// shrunken ring now assigns it. Returns the reports the shard had
    /// already completed; the relocated cohorts finish on their new homes
    /// with identical results.
    pub fn drain_shard(&mut self, shard: u32) -> io::Result<Vec<CohortReport>> {
        let mut client = self
            .clients
            .remove(&shard)
            .ok_or_else(|| io::Error::other(format!("no client for shard {shard}")))?;
        let (reports, checkpoints) = match client.call(&Request::Drain)? {
            Response::Drained {
                reports,
                checkpoints,
            } => (reports, checkpoints),
            Response::Error { message } => return Err(io::Error::other(message)),
            other => return Err(unexpected(&other)),
        };
        self.ring.remove_shard(shard);
        self.retired.insert(shard, client);

        // Re-place every frozen cohort where the shrunken ring points. The
        // blobs travel untouched — the byte-exactness of the handoff is
        // exactly the checkpoint codec's round-trip guarantee.
        let mut by_target: BTreeMap<u32, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        for blob in checkpoints {
            let id = CohortCheckpoint::from_bytes(&blob)
                .map_err(|e| io::Error::other(format!("drained checkpoint rejected: {e}")))?
                .spec
                .id;
            let target = self
                .ring
                .shard_for(id)
                .map_err(|e| io::Error::other(e.to_string()))?;
            by_target.entry(target).or_default().push((id, blob));
        }
        for (target, entries) in by_target {
            let n = entries.len() as u32;
            // The migration runs under the first relocated cohort's
            // deterministic trace, so the receiving shard's handoff spans
            // stitch into the same fleet tree.
            let trace = entries.first().map(|&(id, _)| TraceContext::for_cohort(id));
            let blobs: Vec<Vec<u8>> = entries.into_iter().map(|(_, blob)| blob).collect();
            let client = self
                .clients
                .get_mut(&target)
                .ok_or_else(|| io::Error::other(format!("no client for shard {target}")))?;
            match client.call(&Request::Handoff {
                checkpoints: blobs,
                trace,
            })? {
                Response::Accepted { accepted, shed: 0, .. } if accepted == n => {
                    self.counters.relocated_cohorts += u64::from(n);
                }
                Response::Accepted { accepted, shed, .. } => {
                    return Err(io::Error::other(format!(
                        "handoff to shard {target} lost cohorts: {accepted} adopted, {shed} shed of {n}"
                    )))
                }
                Response::Error { message } => return Err(io::Error::other(message)),
                other => return Err(unexpected(&other)),
            }
        }
        Ok(reports)
    }

    /// Every connected shard id, live and retired (drained shards keep
    /// their telemetry until shutdown, so a fleet scrape includes them).
    pub fn all_shards(&self) -> Vec<u32> {
        self.clients
            .keys()
            .chain(self.retired.keys())
            .copied()
            .collect()
    }

    /// Fetch one shard's binary telemetry export.
    pub fn obs_export(&mut self, shard: u32) -> io::Result<ObsFrame> {
        let client = self
            .clients
            .get_mut(&shard)
            .or_else(|| self.retired.get_mut(&shard))
            .ok_or_else(|| io::Error::other(format!("no client for shard {shard}")))?;
        match client.call(&Request::ObsExport)? {
            Response::ObsFrame { frame } => Ok(frame),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Stop every shard server (live and retired) and consume the router.
    pub fn shutdown_all(mut self) -> io::Result<()> {
        for (_, mut client) in std::mem::take(&mut self.clients)
            .into_iter()
            .chain(std::mem::take(&mut self.retired))
        {
            let _ = client.call(&Request::Shutdown)?;
        }
        Ok(())
    }
}

fn unexpected(response: &Response) -> io::Error {
    io::Error::other(format!("unexpected response kind: {response:?}"))
}

/// One shard's accumulated telemetry inside a [`FleetScraper`].
#[derive(Default)]
struct ShardObs {
    /// Latest scalar samples (counters/gauges are cumulative, so the
    /// newest scrape supersedes older ones).
    samples: Vec<PromSample>,
    /// Latest native histograms (cumulative for the same reason).
    hists: Vec<ObsHist>,
    /// Latest name table (grows monotonically on the shard).
    names: Vec<String>,
    /// Accumulated span lanes, deduplicated across polls.
    lanes: Vec<AccumLane>,
}

/// One recorder lane accumulated across polls. The shard's ring reports
/// `dropped` (events lost to wrap) and the retained tail; `dropped +
/// retained` is an absolute position in the lane's event stream, so a
/// cursor on that position identifies exactly which tail entries are new
/// since the previous poll — polling twice never duplicates an event.
#[derive(Default)]
struct AccumLane {
    name: String,
    /// Events that wrapped out of the ring before any poll saw them.
    dropped: u64,
    events: Vec<SpanEvent>,
    /// Absolute stream position already ingested.
    cursor: u64,
}

/// Fleet-wide telemetry aggregator: polls every shard's
/// [`Request::ObsExport`], merges histograms bucket-by-bucket
/// ([`LogHistogram::merge`] — exactly the union of the shard streams),
/// re-labels scalar samples by shard, and renders one Prometheus page and
/// one merged Chrome trace for the whole fleet.
#[derive(Default)]
pub struct FleetScraper {
    shards: BTreeMap<u32, ShardObs>,
}

impl FleetScraper {
    /// Empty scraper; feed it with [`FleetScraper::poll`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Scrape every shard the router knows (live and retired) once.
    pub fn poll(&mut self, router: &mut FabricRouter) -> io::Result<()> {
        for shard in router.all_shards() {
            let frame = router.obs_export(shard)?;
            self.ingest(shard, frame);
        }
        Ok(())
    }

    /// Fold one shard's export into the accumulated state (public so a
    /// test or an out-of-band transport can feed frames directly).
    pub fn ingest(&mut self, shard: u32, frame: ObsFrame) {
        let entry = self.shards.entry(shard).or_default();
        entry.samples = frame.samples;
        entry.hists = frame.hists;
        entry.names = frame.names;
        for (i, lane) in frame.lanes.into_iter().enumerate() {
            if entry.lanes.len() <= i {
                entry.lanes.push(AccumLane::default());
            }
            let acc = &mut entry.lanes[i];
            acc.name = lane.name;
            let high = lane.dropped + lane.events.len() as u64;
            if high > acc.cursor {
                let fresh = (high - acc.cursor).min(lane.events.len() as u64) as usize;
                acc.events
                    .extend_from_slice(&lane.events[lane.events.len() - fresh..]);
                acc.dropped += (high - acc.cursor) - fresh as u64;
                acc.cursor = high;
            }
        }
    }

    /// Shards scraped so far.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Accumulated (deduplicated) events across all shards and lanes.
    pub fn total_events(&self) -> usize {
        self.shards
            .values()
            .flat_map(|obs| obs.lanes.iter())
            .map(|lane| lane.events.len())
            .sum()
    }

    /// One shard's accumulated events, flattened across its lanes.
    pub fn shard_events(&self, shard: u32) -> Vec<SpanEvent> {
        self.shards
            .get(&shard)
            .map(|obs| {
                obs.lanes
                    .iter()
                    .flat_map(|lane| lane.events.iter().copied())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// One shard's latest interned name table.
    pub fn shard_names(&self, shard: u32) -> Vec<String> {
        self.shards
            .get(&shard)
            .map(|obs| obs.names.clone())
            .unwrap_or_default()
    }

    /// One shard's latest native histogram for the unlabelled series
    /// `name`.
    pub fn shard_hist(&self, shard: u32, name: &str) -> Option<&LogHistogram> {
        let hists = &self.shards.get(&shard)?.hists;
        let found = hists.iter().find(|h| h.name == name && h.labels.is_empty());
        found.map(|h| &h.hist)
    }

    /// Every distinct histogram series merged across shards, sorted by
    /// `(name, labels)`. The merge is [`LogHistogram::merge`], so each
    /// returned histogram equals one recorder fed all shards' samples.
    pub fn merged_hists(&self) -> Vec<ObsHist> {
        let mut merged: BTreeMap<(String, Vec<(String, String)>), LogHistogram> = BTreeMap::new();
        for obs in self.shards.values() {
            for h in &obs.hists {
                merged
                    .entry((h.name.clone(), h.labels.clone()))
                    .and_modify(|m| m.merge(&h.hist))
                    .or_insert_with(|| h.hist.clone());
            }
        }
        merged
            .into_iter()
            .map(|((name, labels), hist)| ObsHist { name, labels, hist })
            .collect()
    }

    /// Render the fleet Prometheus page: every shard's scalar samples
    /// re-labeled with `shard="<id>"`, per-shard `_count`/`_sum` series
    /// for each native histogram, and fleet-merged `sbgt_fleet_*`
    /// histogram families (bucket/sum/count) whose buckets are the exact
    /// sum of the per-shard scrapes. Each histogram appears under one
    /// family stem, in its native unit.
    pub fn render_prometheus(&self) -> String {
        let mut samples = Vec::new();
        for (&shard, obs) in &self.shards {
            let shard_label = ("shard".to_string(), shard.to_string());
            for s in &obs.samples {
                let mut s = s.clone();
                s.labels.push(shard_label.clone());
                samples.push(s);
            }
            for h in &obs.hists {
                let mut labels = h.labels.clone();
                labels.push(shard_label.clone());
                samples.extend(hist_series(&h.name, &labels, &h.hist, 1.0, false));
            }
        }
        for h in self.merged_hists() {
            let fleet = format!(
                "sbgt_fleet_{}",
                h.name.strip_prefix("sbgt_").unwrap_or(&h.name)
            );
            samples.extend(hist_series(&fleet, &h.labels, &h.hist, 1.0, true));
        }
        render_prom_samples(&samples)
    }

    /// Render one Chrome trace covering every scraped shard: shard `N`
    /// becomes trace process `N + 1` (trace pids must be non-zero and the
    /// OS pids of a same-host loopback fleet may collide), and per-cohort
    /// trace ids — deterministic functions of the cohort id — stitch
    /// spans recorded on different processes under one tree.
    pub fn render_chrome_trace(&self) -> String {
        let processes: Vec<ProcessTrace> = self
            .shards
            .iter()
            .map(|(&shard, obs)| ProcessTrace {
                pid: shard + 1,
                label: format!("shard-{shard}"),
                names: obs.names.clone(),
                lanes: obs
                    .lanes
                    .iter()
                    .map(|lane| LaneSnapshot {
                        name: lane.name.clone(),
                        events: lane.events.clone(),
                        dropped: lane.dropped,
                    })
                    .collect(),
            })
            .collect();
        render_chrome_trace_processes(&processes)
    }
}
