//! The load discipline every serving workload follows, and the ledger
//! that decides whether a run's outputs were correct.
//!
//! One generator thread drives a [`Target`] through up to three phases —
//! *solo* (closed loop, one cohort in flight, poll for the report), *sat*
//! (closed loop at a fixed in-flight window) and *paced* (open loop,
//! seeded Poisson arrivals, each cohort timed from its due time). Work per
//! phase is a slice of a seeded stream, so counts repeat exactly.

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::time::{Duration, Instant};

use sbgt::SessionOutcome;
use sbgt_bayes::SubjectStatus;
use sbgt_lattice::BigState;
use sbgt_service::{CohortReport, CohortSpec, Specimen};

use crate::host;
use crate::spans::{Spans, NO_COHORT};
use crate::target::{Admit, Target};
use crate::traffic::{BatcherMirror, Traffic};

/// Sleep after an empty poll in the closed-loop window wait. A busy poll
/// steals the core the service (or a shard) needs; the soak's busy wait is
/// what produced its 22–92 % shed.
const EMPTY_POLL_SLEEP: Duration = Duration::from_micros(200);

/// The same on the solo path: the shortest sleep there is (some 55 µs
/// with the kernel's default timer slack). A generator that spins, or
/// spins and yields, shares two cores with the service's batcher and
/// worker, and the latency it reads then has two modes a factor 1.7 apart
/// (190 and 320 µs on the reference host), according to which thread the
/// scheduler has put beside it this second; the median of a run jumps
/// between them. Asleep, it is out of the way, at the price of reading a
/// report up to one sleep late.
const SOLO_POLL_SLEEP: Duration = Duration::from_micros(1);

/// Longest the open-loop generator goes without polling for reports.
const PACED_POLL_EVERY: Duration = Duration::from_micros(250);

/// Every `SAMPLE_EVERY`-th cohort is kept whole and later compared bit
/// for bit with the serial reference.
pub const SAMPLE_EVERY: u64 = 64;

/// A wait with no progress for this long fails the run.
const STALL: Duration = Duration::from_secs(60);

/// Counts the ledger keeps; all cumulative over one target's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Specimens handed to the target.
    pub offered: u64,
    /// Specimens the target refused (alone or with their cohort).
    pub shed: u64,
    /// Specimens inside reports received.
    pub classified: u64,
    /// Reports received.
    pub cohorts: u64,
    /// Assays those reports consumed.
    pub tests: u64,
    /// Specimens inside reports that were not terminal.
    pub non_terminal: u64,
    pub true_pos: u64,
    pub false_neg: u64,
    pub true_neg: u64,
    pub false_pos: u64,
}

impl Tally {
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            offered: self.offered - earlier.offered,
            shed: self.shed - earlier.shed,
            classified: self.classified - earlier.classified,
            cohorts: self.cohorts - earlier.cohorts,
            tests: self.tests - earlier.tests,
            non_terminal: self.non_terminal - earlier.non_terminal,
            true_pos: self.true_pos - earlier.true_pos,
            false_neg: self.false_neg - earlier.false_neg,
            true_neg: self.true_neg - earlier.true_neg,
            false_pos: self.false_pos - earlier.false_pos,
        }
    }

    pub fn plus(&self, other: &Tally) -> Tally {
        Tally {
            offered: self.offered + other.offered,
            shed: self.shed + other.shed,
            classified: self.classified + other.classified,
            cohorts: self.cohorts + other.cohorts,
            tests: self.tests + other.tests,
            non_terminal: self.non_terminal + other.non_terminal,
            true_pos: self.true_pos + other.true_pos,
            false_neg: self.false_neg + other.false_neg,
            true_neg: self.true_neg + other.true_neg,
            false_pos: self.false_pos + other.false_pos,
        }
    }

    /// Planted positives classified positive ÷ planted positives.
    pub fn sensitivity(&self) -> f64 {
        ratio(self.true_pos, self.true_pos + self.false_neg)
    }

    /// Planted negatives classified negative ÷ planted negatives.
    pub fn specificity(&self) -> f64 {
        ratio(self.true_neg, self.true_neg + self.false_pos)
    }

    pub fn tests_per_specimen(&self) -> f64 {
        ratio(self.tests, self.classified)
    }
}

/// `a / b`, reading an empty denominator as "nothing went wrong".
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        1.0
    } else {
        a as f64 / b as f64
    }
}

/// Whether two outcomes are the same bit for bit: tests, stages,
/// statuses, and every marginal's bits.
pub fn same_bits(a: &SessionOutcome, b: &SessionOutcome) -> bool {
    a.tests == b.tests
        && a.stages == b.stages
        && a.classification.statuses == b.classification.statuses
        && a.marginals.len() == b.marginals.len()
        && a.marginals
            .iter()
            .zip(&b.marginals)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Score one outcome against the planted truth: a subject counts as
/// found only when classified positive, and as cleared only when
/// classified negative — an undetermined subject is a miss either way.
pub fn score(tally: &mut Tally, truth: &BigState, statuses: &[SubjectStatus]) {
    for (i, status) in statuses.iter().enumerate() {
        match (truth.contains(i), status) {
            (true, SubjectStatus::Positive) => tally.true_pos += 1,
            (true, _) => tally.false_neg += 1,
            (false, SubjectStatus::Negative) => tally.true_neg += 1,
            (false, _) => tally.false_pos += 1,
        }
    }
}

struct InFlight {
    truth: BigState,
    sealed_at: Instant,
    /// Cohorts sealed by the closing flush may be short.
    may_be_partial: bool,
    /// Kept whole for the bit-for-bit check.
    sample: Option<CohortSpec>,
}

/// The specimen ledger of one target: what was offered, what came back,
/// and whether each report is the report of the cohort the harness
/// expected under that id.
pub struct Book {
    batch_size: usize,
    in_flight: HashMap<u64, InFlight>,
    pub tally: Tally,
    /// Seal-to-report latency in ms of reports since the last
    /// [`Book::take_latencies`].
    latencies_ms: Vec<f64>,
    /// Every [`SAMPLE_EVERY`]-th cohort with its report.
    pub samples: Vec<(CohortSpec, CohortReport)>,
    /// Why the run's outputs are wrong; empty on a correct run.
    pub violations: Vec<String>,
}

impl Book {
    pub fn new(batch_size: usize) -> Self {
        Book {
            batch_size,
            in_flight: HashMap::new(),
            tally: Tally::default(),
            latencies_ms: Vec::new(),
            samples: Vec::new(),
            violations: Vec::new(),
        }
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    pub fn take_latencies(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.latencies_ms)
    }

    fn violation(&mut self, message: String) {
        // Keep the first few: one broken invariant tends to repeat.
        if self.violations.len() < 16 {
            self.violations.push(message);
        }
    }

    fn sealed(&mut self, spec: CohortSpec, sealed_at: Instant, may_be_partial: bool) {
        let sample = spec.id.is_multiple_of(SAMPLE_EVERY).then(|| spec.clone());
        self.in_flight.insert(
            spec.id,
            InFlight {
                truth: spec.truth,
                sealed_at,
                may_be_partial,
                sample,
            },
        );
    }

    /// Account one report; `Some((cohort, sealed_at))` when it was expected.
    fn complete(&mut self, report: CohortReport, now: Instant) -> Option<(u64, Instant)> {
        let Some(flight) = self.in_flight.remove(&report.cohort) else {
            self.violation(format!(
                "report for cohort {} which is not in flight (unknown or reported twice)",
                report.cohort
            ));
            return None;
        };
        let outcome = &report.outcome;
        if report.subjects != self.batch_size && !flight.may_be_partial {
            self.violation(format!(
                "cohort {} reported {} subjects, batches seal at {}: the batcher mirror no longer holds",
                report.cohort, report.subjects, self.batch_size
            ));
        }
        if outcome.classification.statuses.len() != report.subjects {
            self.violation(format!(
                "cohort {} carries {} statuses for {} subjects",
                report.cohort,
                outcome.classification.statuses.len(),
                report.subjects
            ));
        }
        let subjects = report.subjects as u64;
        self.tally.cohorts += 1;
        self.tally.classified += subjects;
        self.tally.tests += outcome.tests as u64;
        if !outcome.classification.is_terminal() {
            self.tally.non_terminal += subjects;
        }
        score(
            &mut self.tally,
            &flight.truth,
            &outcome.classification.statuses,
        );
        self.latencies_ms.push(
            now.saturating_duration_since(flight.sealed_at)
                .as_secs_f64()
                * 1e3,
        );
        let id = report.cohort;
        if let Some(spec) = flight.sample {
            self.samples.push((spec, report));
        }
        Some((id, flight.sealed_at))
    }

    /// The ledger's closing balance: everything offered was classified or
    /// shed, and nothing is still out.
    pub fn check_balance(&mut self) {
        let t = self.tally;
        if t.offered != t.classified + t.shed {
            self.violation(format!(
                "specimen ledger does not balance: {} offered != {} classified + {} shed",
                t.offered, t.classified, t.shed
            ));
        }
        if !self.in_flight.is_empty() {
            self.violation(format!("{} cohorts never reported", self.in_flight.len()));
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    pub counts: Tally,
    pub wall_s: f64,
    /// CPU seconds of the harness and the target's children over the phase.
    pub cpu_s: f64,
    /// CPU seconds of the harness alone over the phase.
    pub own_cpu_s: f64,
    /// Seal-to-report latencies of the reports received in the phase, ms.
    pub latencies_ms: Vec<f64>,
    /// Open loop only: how late each arrival was submitted, ms.
    pub lag_ms: Vec<f64>,
    /// Calls into the program during the phase.
    pub calls: u64,
    /// Marks taken as reports arrived, in order.
    pub progress: Vec<Mark>,
}

/// One point on a phase's progress curve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mark {
    /// Seconds into the phase.
    pub at_s: f64,
    /// Specimens classified so far.
    pub classified: u64,
}

impl Phase {
    pub fn specimens_per_s(&self) -> f64 {
        self.counts.classified as f64 / self.wall_s
    }

    pub fn cpu_ms_per_specimen(&self) -> f64 {
        self.cpu_s * 1e3 / self.counts.classified.max(1) as f64
    }
}

struct PhaseStart {
    name: &'static str,
    tally: Tally,
    at: Instant,
    cpu_s: f64,
    own_cpu_s: f64,
    calls: u64,
}

/// The generator: one thread, one target, one ledger.
pub struct Driver<T: Target> {
    pub target: T,
    mirror: BatcherMirror,
    pub book: Book,
    pub spans: Spans,
    /// When reports arrived in the current phase, with the classified
    /// total by then.
    progress: Vec<(Instant, u64)>,
}

impl<T: Target> Driver<T> {
    pub fn new(target: T, batch_size: usize, base_seed: u64, spans: Spans) -> Self {
        Driver {
            target,
            mirror: BatcherMirror::new(batch_size, base_seed),
            book: Book::new(batch_size),
            spans,
            progress: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) -> PhaseStart {
        // Latencies of stragglers from an earlier phase belong to it, not
        // to this one; phases end with nothing in flight, so none exist.
        self.book.take_latencies();
        self.progress.clear();
        PhaseStart {
            name,
            tally: self.book.tally,
            at: Instant::now(),
            cpu_s: host::cpu_seconds_with(&self.target.children()),
            own_cpu_s: host::cpu_seconds(std::process::id()),
            calls: self.target.calls(),
        }
    }

    fn end(&mut self, start: PhaseStart, lag_ms: Vec<f64>) -> Phase {
        let wall_s = start.at.elapsed().as_secs_f64();
        let children = self.target.children();
        Phase {
            name: start.name,
            counts: self.book.tally.since(&start.tally),
            wall_s,
            cpu_s: host::cpu_seconds_with(&children) - start.cpu_s,
            own_cpu_s: host::cpu_seconds(std::process::id()) - start.own_cpu_s,
            latencies_ms: self.book.take_latencies(),
            lag_ms,
            calls: self.target.calls() - start.calls,
            progress: std::mem::take(&mut self.progress)
                .into_iter()
                .map(|(at, classified)| Mark {
                    at_s: at.saturating_duration_since(start.at).as_secs_f64(),
                    classified: classified - start.tally.classified,
                })
                .collect(),
        }
    }

    /// Hand one specimen to the target and book what became of it.
    /// `sealed_at` is the instant a cohort this specimen seals is timed
    /// from. Returns whether a cohort went in flight.
    fn send(
        &mut self,
        tenant: u32,
        specimen: Specimen,
        open_loop: bool,
        sealed_at: Option<Instant>,
    ) -> io::Result<bool> {
        let seals = self.mirror.seals_next(tenant);
        let name = if seals {
            Some(T::CALLS.seal)
        } else {
            T::CALLS.submit
        };
        let call_at = Instant::now();
        let open = name.map(|n| self.spans.enter(n, NO_COHORT));
        let admit = if open_loop {
            self.target.offer(tenant, specimen)
        } else {
            self.target.submit(tenant, specimen)
        };
        if let Some(open) = open {
            self.spans.exit(open);
        }
        self.book.tally.offered += 1;
        match admit? {
            Admit::Accepted => match self.mirror.push(tenant, specimen) {
                Some(spec) => {
                    self.book.sealed(spec, sealed_at.unwrap_or(call_at), false);
                    Ok(true)
                }
                None => Ok(false),
            },
            Admit::ShedSpecimen => {
                self.book.tally.shed += 1;
                Ok(false)
            }
            Admit::ShedCohort => {
                let spec = self.mirror.push(tenant, specimen).ok_or_else(|| {
                    io::Error::other("a cohort was shed by a submit that sealed none")
                })?;
                // The eleven specimens buffered before this one were
                // booked as offered when they came; all twelve are shed.
                self.book.tally.shed += spec.n_subjects() as u64;
                Ok(false)
            }
        }
    }

    /// Poll once and book every report. Returns how many arrived.
    pub fn harvest(&mut self) -> io::Result<usize> {
        let open = self.spans.enter(T::CALLS.poll, NO_COHORT);
        let reports = self.target.poll();
        self.spans.exit(open);
        self.book_reports(reports?)
    }

    pub fn book_reports(&mut self, reports: Vec<CohortReport>) -> io::Result<usize> {
        let now = Instant::now();
        let n = reports.len();
        for report in reports {
            if let Some((cohort, sealed_at)) = self.book.complete(report, now) {
                if self.spans.enabled() {
                    let (start, end) = (self.spans.ns_of(sealed_at), self.spans.ns_of(now));
                    self.spans
                        .record("cohort.seal_to_report", cohort, start, end);
                }
            }
        }
        if n > 0 {
            self.progress.push((now, self.book.tally.classified));
        }
        Ok(n)
    }

    /// Poll until at most `limit` cohorts are in flight, sleeping `pause`
    /// after each empty poll.
    fn wait_in_flight(&mut self, limit: usize, pause: Duration) -> io::Result<()> {
        let mut last_progress = Instant::now();
        while self.book.in_flight() > limit {
            if self.harvest()? > 0 {
                last_progress = Instant::now();
            } else {
                if last_progress.elapsed() > STALL {
                    return Err(io::Error::other(format!(
                        "stalled: {} cohorts in flight and no report for {STALL:?}",
                        self.book.in_flight()
                    )));
                }
                std::thread::sleep(pause);
            }
        }
        Ok(())
    }

    /// Closed loop, one cohort in flight: every cohort's latency is the
    /// blocking path with no queueing.
    pub fn solo(&mut self, traffic: &Traffic, range: Range<usize>) -> io::Result<Phase> {
        let start = self.begin("solo");
        let open = self.spans.enter("phase.solo", NO_COHORT);
        for i in range {
            let (tenant, specimen) = traffic.get(i);
            if self.send(tenant, specimen, false, None)? {
                self.wait_in_flight(0, SOLO_POLL_SLEEP)?;
            }
        }
        self.spans.exit(open);
        Ok(self.end(start, Vec::new()))
    }

    /// Closed loop at a fixed window of cohorts in flight, then wait for
    /// the window to empty.
    pub fn sat(
        &mut self,
        traffic: &Traffic,
        range: Range<usize>,
        window: usize,
    ) -> io::Result<Phase> {
        let start = self.begin("sat");
        let open = self.spans.enter("phase.sat", NO_COHORT);
        for i in range {
            let (tenant, specimen) = traffic.get(i);
            if self.send(tenant, specimen, false, None)? {
                self.wait_in_flight(window.saturating_sub(1), EMPTY_POLL_SLEEP)?;
            }
        }
        self.wait_in_flight(0, EMPTY_POLL_SLEEP)?;
        self.spans.exit(open);
        Ok(self.end(start, Vec::new()))
    }

    /// Open loop: each arrival is submitted when due (or as soon after as
    /// the generator manages, which is reported), each cohort is timed
    /// from the due time of the arrival that sealed it, and overload
    /// sheds instead of slowing the generator.
    pub fn paced(&mut self, traffic: &Traffic, range: Range<usize>) -> io::Result<Phase> {
        let start = self.begin("paced");
        let open = self.spans.enter("phase.paced", NO_COHORT);
        let mut lag_ms = Vec::with_capacity(range.len());
        let origin = Instant::now();
        let mut last_poll = origin;
        for i in range {
            let due = origin + traffic.due(i);
            loop {
                let now = Instant::now();
                if now.saturating_duration_since(last_poll) >= PACED_POLL_EVERY {
                    self.harvest()?;
                    last_poll = Instant::now();
                    continue;
                }
                if now >= due {
                    lag_ms.push((now - due).as_secs_f64() * 1e3);
                    break;
                }
                std::thread::sleep((due - now).min(last_poll + PACED_POLL_EVERY - now));
            }
            let (tenant, specimen) = traffic.get(i);
            self.send(tenant, specimen, true, Some(due))?;
        }
        self.wait_in_flight(0, EMPTY_POLL_SLEEP)?;
        self.spans.exit(open);
        Ok(self.end(start, lag_ms))
    }

    /// Submit a slice as the sat phase does, at a fixed window, but leave
    /// the window in flight at the end (the fabric handoff drains a shard
    /// under it).
    pub fn fill(
        &mut self,
        traffic: &Traffic,
        range: Range<usize>,
        window: usize,
    ) -> io::Result<()> {
        for i in range {
            let (tenant, specimen) = traffic.get(i);
            if self.send(tenant, specimen, false, None)? {
                self.wait_in_flight(window.saturating_sub(1), EMPTY_POLL_SLEEP)?;
            }
        }
        Ok(())
    }

    /// Poll until nothing is in flight.
    pub fn settle(&mut self) -> io::Result<()> {
        self.wait_in_flight(0, EMPTY_POLL_SLEEP)
    }

    /// Seal the partial batches, collect every last report and close the
    /// ledger. The phase it returns covers the closing flush only.
    pub fn close(&mut self) -> io::Result<Phase> {
        let start = self.begin("close");
        let now = Instant::now();
        for spec in self.mirror.flush() {
            self.book.sealed(spec, now, true);
        }
        let open = self.spans.enter("phase.close", NO_COHORT);
        let reports = self.target.close()?;
        self.book_reports(reports)?;
        self.wait_in_flight(0, EMPTY_POLL_SLEEP)?;
        self.spans.exit(open);
        self.book.check_balance();
        Ok(self.end(start, Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_bayes::CohortClassification;

    fn spec(id: u64, infected: &[bool]) -> CohortSpec {
        let specimens: Vec<Specimen> = infected
            .iter()
            .map(|&infected| Specimen {
                risk: 0.1,
                infected,
            })
            .collect();
        CohortSpec::from_specimens(id, 1, &specimens)
    }

    fn report(id: u64, statuses: Vec<SubjectStatus>, tests: usize) -> CohortReport {
        let subjects = statuses.len();
        CohortReport {
            cohort: id,
            tenant: 0,
            subjects,
            recovered_rounds: 0,
            outcome: SessionOutcome {
                tests,
                stages: tests,
                subjects,
                classification: CohortClassification { statuses },
                marginals: vec![0.0; subjects],
            },
        }
    }

    use SubjectStatus::{Negative, Positive, Undetermined};

    #[test]
    fn ledger_scores_and_balances() {
        let mut book = Book::new(3);
        let now = Instant::now();
        book.tally.offered = 6;
        book.sealed(spec(0, &[true, false, false]), now, false);
        book.sealed(spec(1, &[true, true, false]), now, false);
        assert_eq!(book.in_flight(), 2);
        book.complete(report(0, vec![Positive, Negative, Negative], 4), now);
        // One positive missed, one negative left undetermined.
        book.complete(report(1, vec![Positive, Negative, Undetermined], 5), now);
        book.check_balance();
        assert!(book.violations.is_empty(), "{:?}", book.violations);
        let t = book.tally;
        assert_eq!(
            (t.true_pos, t.false_neg, t.true_neg, t.false_pos),
            (2, 1, 2, 1)
        );
        assert_eq!(
            (t.cohorts, t.classified, t.tests, t.non_terminal),
            (2, 6, 9, 3)
        );
        assert!((t.sensitivity() - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.specificity() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.tests_per_specimen(), 1.5);
        assert_eq!(book.take_latencies().len(), 2);
        // Cohort 0 is a sampled id; cohort 1 is not.
        assert_eq!(book.samples.len(), 1);
    }

    #[test]
    fn ledger_flags_what_breaks_the_mirror() {
        let mut book = Book::new(3);
        let now = Instant::now();
        book.tally.offered = 9;
        book.sealed(spec(0, &[false; 3]), now, false);
        book.sealed(spec(1, &[false; 2]), now, true);
        book.sealed(spec(2, &[false; 3]), now, false);
        // A short report is fine only for a cohort the closing flush sealed.
        book.complete(report(1, vec![Negative; 2], 1), now);
        assert!(book.violations.is_empty());
        book.complete(report(0, vec![Negative; 2], 1), now);
        assert_eq!(book.violations.len(), 1, "short non-final report");
        book.complete(report(7, vec![Negative; 3], 1), now);
        assert_eq!(book.violations.len(), 2, "unknown cohort id");
        book.check_balance();
        // 9 offered, 4 classified, cohort 2 never reported.
        assert_eq!(book.violations.len(), 4);
    }

    #[test]
    fn empty_denominators_read_as_perfect() {
        let t = Tally::default();
        assert_eq!(t.sensitivity(), 1.0);
        assert_eq!(t.specificity(), 1.0);
        let later = Tally {
            offered: 5,
            classified: 3,
            ..t
        };
        assert_eq!(later.since(&t).offered, 5);
        assert_eq!(later.plus(&later).classified, 6);
    }
}
