//! Session checkpoint/restore — the eviction and recovery format.
//!
//! A [`SessionSnapshot`] captures the full state of a live session —
//! posterior shards (exact unnormalized values), normalization constant,
//! committed pools, round counter, fresh marginals, and the pipelined
//! selection bank — so a cohort can be evicted under memory pressure and
//! later rehydrated, or rolled back after a chaos fault kills a round,
//! **bit-for-bit**: every float is preserved exactly, so the restored
//! session selects the same pools and reaches the same classification as
//! one that never stopped.
//!
//! The struct derives the workspace's `serde` marker traits; durable
//! persistence goes through the explicit binary codec
//! ([`SessionSnapshot::to_bytes`] / [`SessionSnapshot::from_bytes`]), which
//! round-trips floats via their IEEE-754 bit patterns.

use serde::{Deserialize, Serialize};

use sbgt_lattice::bytes::{ByteError, Reader, Writer};
use sbgt_lattice::{SparsePosterior, State};

/// Which approximate backend produced an [`ApproxSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApproxKind {
    /// Loopy belief propagation on the specimen↔pool factor graph. BP
    /// sessions are a pure function of (prior, history) — the snapshot
    /// carries no message state, marginals are re-relaxed on restore.
    Bp,
    /// Sequential Monte Carlo particle posterior: the snapshot carries the
    /// full particle population, log-weights, and RNG state, so the restored
    /// session continues the exact sample path bit for bit.
    Particle,
}

impl ApproxKind {
    /// Stable wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            ApproxKind::Bp => 0,
            ApproxKind::Particle => 1,
        }
    }

    /// Decode a wire byte; unknown values are a typed error.
    pub fn from_byte(b: u8) -> Result<Self, SnapshotError> {
        match b {
            0 => Ok(ApproxKind::Bp),
            1 => Ok(ApproxKind::Particle),
            other => Err(SnapshotError::Corrupt(format!(
                "unknown approx kind byte {other}"
            ))),
        }
    }
}

/// Particle-population state for [`ApproxKind::Particle`] snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParticleBlock {
    /// Bit-words per particle: `ceil(n_subjects / 64)`.
    pub words_per_particle: usize,
    /// All particles' bit-words, concatenated: particle `p` owns
    /// `words[p*wpp .. (p+1)*wpp]`.
    pub words: Vec<u64>,
    /// One log-weight per particle (unnormalized).
    pub log_weights: Vec<f64>,
    /// The session RNG state (xoshiro256**, 4 words) at the snapshot point.
    pub rng: [u64; 4],
}

/// State of an approximate (beyond-2^N) session. Pools are recorded as
/// sorted subject-index lists because a [`State`] word cannot hold them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxSnapshot {
    /// Which backend this is.
    pub kind: ApproxKind,
    /// Committed pools: every `(sorted subject indices, outcome)` observed
    /// so far, in order.
    pub history: Vec<(Vec<u32>, bool)>,
    /// Particle population; `Some` iff `kind` is [`ApproxKind::Particle`].
    pub particles: Option<ParticleBlock>,
}

/// Error restoring or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is inconsistent (wrong magic, truncated buffer, shard
    /// lengths that do not tile the lattice, ...); the message says how.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(msg) => write!(f, "corrupt session snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Post-switch sparse posterior state: the retained entries (exact bits,
/// sorted by state index) plus the pruned-mass record, enough to rebuild
/// the live [`sbgt_lattice::SparsePosterior`] via
/// [`sbgt_lattice::SparsePosterior::from_parts`] bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseSnapshot {
    /// Retained `(state, mass)` entries, sorted by state index.
    pub entries: Vec<(State, f64)>,
    /// Mass discarded by pruning so far (the conservation record).
    pub pruned_mass: f64,
}

impl SparseSnapshot {
    /// Capture a live sparse posterior.
    pub fn of(posterior: &SparsePosterior) -> Self {
        SparseSnapshot {
            entries: posterior.entries().to_vec(),
            pruned_mass: posterior.pruned_mass(),
        }
    }

    /// Rebuild the sparse posterior over `n_subjects`, bit for bit.
    pub fn posterior(&self, n_subjects: usize) -> SparsePosterior {
        SparsePosterior::from_parts(n_subjects, self.entries.clone(), self.pruned_mass)
    }
}

/// Full state of a session at a round boundary (or mid-stage: any point
/// between observations is a valid snapshot point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Cohort size.
    pub n_subjects: usize,
    /// Posterior values per shard, exact bits. Dense sessions store one
    /// shard of normalized probabilities; sharded sessions store one vector
    /// per partition (unnormalized), preserving partition boundaries so the
    /// restored reduction order — and therefore every downstream float —
    /// is identical.
    pub shards: Vec<Vec<f64>>,
    /// Normalization constant of the sharded posterior (dense sessions
    /// store `1.0`; their posterior is kept normalized).
    pub total: f64,
    /// Committed pools: every `(pool, outcome)` observed so far, in order.
    pub history: Vec<(State, bool)>,
    /// Round counter (completed stages).
    pub stages: usize,
    /// Current marginals (sharded sessions keep them fresh; dense sessions
    /// store them for inspection but recompute on demand).
    pub marginals: Vec<f64>,
    /// Sharded sessions: the `(order, masses)` selection bank pipelined
    /// from the last fused round, if any.
    pub pending_selection: Option<(Vec<usize>, Vec<f64>)>,
    /// Post-switch sparse posterior, for sessions that have crossed the
    /// adaptive dense→sparse threshold (or always-sparse sessions). When
    /// set, `shards` is empty — the sparse entries *are* the posterior.
    pub sparse: Option<SparseSnapshot>,
    /// Approximate-backend state (BP / particle). When set, `shards`,
    /// `history`, and `sparse` are all empty — the cohort never had a `2^N`
    /// posterior or one-word pools to store.
    pub approx: Option<ApproxSnapshot>,
}

const MAGIC: &[u8; 8] = b"SBGTSNAP";
/// Format written for dense/sharded snapshots — unchanged from the first
/// release, so pre-sparse archives decode and dense snapshots stay
/// byte-identical to what older readers expect.
const VERSION_DENSE: u32 = 1;
/// Format written when the sparse section is present (appended after the
/// pending-selection section).
const VERSION_SPARSE: u32 = 2;
/// Format written when the approx section is present (appended after the
/// pending-selection section; mutually exclusive with the sparse section).
const VERSION_APPROX: u32 = 3;

impl SessionSnapshot {
    /// Number of posterior values across all shards.
    pub fn state_count(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Check internal consistency: shard lengths must tile the `2^N`
    /// lattice and the marginals (when present) must match the cohort size.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if let Some(ap) = &self.approx {
            return self.validate_approx(ap);
        }
        let want = 1usize
            .checked_shl(self.n_subjects as u32)
            .filter(|_| self.n_subjects <= 63)
            .ok_or_else(|| {
                SnapshotError::Corrupt(format!("cohort size {} overflows u64", self.n_subjects))
            })?;
        match &self.sparse {
            None => {
                if self.state_count() != want {
                    return Err(SnapshotError::Corrupt(format!(
                        "shards hold {} values, lattice needs {want}",
                        self.state_count()
                    )));
                }
            }
            Some(sp) => {
                if self.state_count() != 0 {
                    return Err(SnapshotError::Corrupt(format!(
                        "sparse snapshot also holds {} dense values",
                        self.state_count()
                    )));
                }
                if sp.entries.len() > want {
                    return Err(SnapshotError::Corrupt(format!(
                        "sparse support {} exceeds lattice size {want}",
                        sp.entries.len()
                    )));
                }
                for w in sp.entries.windows(2) {
                    if w[0].0.bits() >= w[1].0.bits() {
                        return Err(SnapshotError::Corrupt(format!(
                            "sparse entries unsorted or duplicated at state {}",
                            w[1].0
                        )));
                    }
                }
                if let Some((s, _)) = sp.entries.last() {
                    if s.bits() >= want as u64 {
                        return Err(SnapshotError::Corrupt(format!(
                            "sparse state {s} out of range for n={}",
                            self.n_subjects
                        )));
                    }
                }
                if !sp.pruned_mass.is_finite() {
                    return Err(SnapshotError::Corrupt(format!(
                        "non-finite pruned mass {}",
                        sp.pruned_mass
                    )));
                }
            }
        }
        if !self.marginals.is_empty() && self.marginals.len() != self.n_subjects {
            return Err(SnapshotError::Corrupt(format!(
                "{} marginals for {} subjects",
                self.marginals.len(),
                self.n_subjects
            )));
        }
        if let Some((order, masses)) = &self.pending_selection {
            if masses.len() != order.len() + 1 {
                return Err(SnapshotError::Corrupt(format!(
                    "pending selection holds {} masses for {} ordered subjects",
                    masses.len(),
                    order.len()
                )));
            }
        }
        Ok(())
    }

    /// Consistency rules for approx snapshots: no dense/sparse posterior
    /// payload may ride along, pools must be sorted in-range index lists,
    /// and a particle block must tile `count × words_per_particle` exactly.
    /// There is deliberately no `2^N` bound here — that wall is the reason
    /// these snapshots exist.
    fn validate_approx(&self, ap: &ApproxSnapshot) -> Result<(), SnapshotError> {
        if self.state_count() != 0 || self.sparse.is_some() || !self.history.is_empty() {
            return Err(SnapshotError::Corrupt(
                "approx snapshot also holds exact-posterior state".into(),
            ));
        }
        let n = self.n_subjects as u32;
        for (pool, _) in &ap.history {
            if pool.is_empty() {
                return Err(SnapshotError::Corrupt(
                    "empty pool in approx history".into(),
                ));
            }
            for w in pool.windows(2) {
                if w[0] >= w[1] {
                    return Err(SnapshotError::Corrupt(format!(
                        "approx pool unsorted or duplicated at subject {}",
                        w[1]
                    )));
                }
            }
            if pool.last().copied().unwrap_or(0) >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "approx pool subject {} out of range for n={n}",
                    pool.last().unwrap()
                )));
            }
        }
        match (&ap.kind, &ap.particles) {
            (ApproxKind::Bp, Some(_)) => {
                return Err(SnapshotError::Corrupt(
                    "BP snapshot carries a particle block".into(),
                ));
            }
            (ApproxKind::Particle, None) => {
                return Err(SnapshotError::Corrupt(
                    "particle snapshot missing its particle block".into(),
                ));
            }
            (ApproxKind::Particle, Some(pb)) => {
                let wpp = self.n_subjects.div_ceil(64);
                if pb.words_per_particle != wpp {
                    return Err(SnapshotError::Corrupt(format!(
                        "{} words per particle, n={} needs {wpp}",
                        pb.words_per_particle, self.n_subjects
                    )));
                }
                if pb.log_weights.is_empty() {
                    return Err(SnapshotError::Corrupt("zero particles".into()));
                }
                if pb.words.len() != pb.log_weights.len() * wpp {
                    return Err(SnapshotError::Corrupt(format!(
                        "{} particle words for {} particles of {wpp} word(s)",
                        pb.words.len(),
                        pb.log_weights.len()
                    )));
                }
                if pb
                    .log_weights
                    .iter()
                    .any(|w| w.is_nan() || *w == f64::INFINITY)
                {
                    return Err(SnapshotError::Corrupt(
                        "non-finite particle log-weight".into(),
                    ));
                }
            }
            (ApproxKind::Bp, None) => {}
        }
        if !self.marginals.is_empty() && self.marginals.len() != self.n_subjects {
            return Err(SnapshotError::Corrupt(format!(
                "{} marginals for {} subjects",
                self.marginals.len(),
                self.n_subjects
            )));
        }
        if self.pending_selection.is_some() {
            return Err(SnapshotError::Corrupt(
                "approx snapshot carries a pending dense selection bank".into(),
            ));
        }
        Ok(())
    }

    /// Serialize to the versioned binary format. Floats are written as
    /// little-endian IEEE-754 bit patterns, so decode is bit-exact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.state_count() * 8);
        let version = if self.approx.is_some() {
            VERSION_APPROX
        } else if self.sparse.is_some() {
            VERSION_SPARSE
        } else {
            VERSION_DENSE
        };
        w.raw(MAGIC);
        w.u32(version);
        w.u64(self.n_subjects as u64);
        w.u64(self.stages as u64);
        w.f64(self.total);
        w.u64(self.shards.len() as u64);
        for shard in &self.shards {
            put_f64_list(&mut w, shard);
        }
        w.u64(self.history.len() as u64);
        for (pool, outcome) in &self.history {
            w.u64(pool.bits());
            w.u8(u8::from(*outcome));
        }
        put_f64_list(&mut w, &self.marginals);
        match &self.pending_selection {
            None => w.u8(0),
            Some((order, masses)) => {
                w.u8(1);
                w.u64(order.len() as u64);
                for &i in order {
                    w.u64(i as u64);
                }
                put_f64_list(&mut w, masses);
            }
        }
        if let Some(sp) = &self.sparse {
            w.u64(sp.entries.len() as u64);
            for (s, p) in &sp.entries {
                w.u64(s.bits());
                w.f64(*p);
            }
            w.f64(sp.pruned_mass);
        }
        if let Some(ap) = &self.approx {
            w.u8(ap.kind.to_byte());
            w.u64(ap.history.len() as u64);
            for (pool, outcome) in &ap.history {
                w.u32(pool.len() as u32);
                for &i in pool {
                    w.u32(i);
                }
                w.u8(u8::from(*outcome));
            }
            match &ap.particles {
                None => w.u8(0),
                Some(pb) => {
                    w.u8(1);
                    w.u64(pb.log_weights.len() as u64);
                    w.u64(pb.words_per_particle as u64);
                    w.u64s(&pb.words);
                    w.f64s(&pb.log_weights);
                    w.u64s(&pb.rng);
                }
            }
        }
        w.into_bytes()
    }

    /// Decode the binary format; every structural violation is a typed
    /// [`SnapshotError::Corrupt`]. Every count is bounded by the bytes
    /// left ([`Reader::fits`]) before anything is allocated for it.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(SnapshotError::Corrupt("bad magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION_DENSE && version != VERSION_SPARSE && version != VERSION_APPROX {
            return Err(SnapshotError::Corrupt(format!(
                "unsupported version {version}"
            )));
        }
        let n_subjects = r.u64()? as usize;
        let stages = r.u64()? as usize;
        let total = r.f64()?;
        let shard_count = r.count64(8, "shard")?;
        let shards = (0..shard_count)
            .map(|_| read_f64_list(&mut r, "shard value"))
            .collect::<Result<_, _>>()?;
        let history_len = r.count64(9, "history")?;
        let history = (0..history_len)
            .map(|_| Ok((State(r.u64()?), r.u8()? != 0)))
            .collect::<Result<_, ByteError>>()?;
        let marginals = read_f64_list(&mut r, "marginals")?;
        let pending_selection = match r.u8()? {
            0 => None,
            1 => {
                let order_len = r.count64(8, "pending order")?;
                let order = r.u64s(order_len)?.into_iter().map(|i| i as usize);
                Some((order.collect(), read_f64_list(&mut r, "pending masses")?))
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "bad pending-selection tag {other}"
                )))
            }
        };
        let sparse = if version == VERSION_SPARSE {
            let entries_len = r.count64(16, "sparse entry")?;
            let entries = (0..entries_len)
                .map(|_| Ok((State(r.u64()?), r.f64()?)))
                .collect::<Result<_, ByteError>>()?;
            Some(SparseSnapshot {
                entries,
                pruned_mass: r.f64()?,
            })
        } else {
            None
        };
        let approx = if version == VERSION_APPROX {
            Some(read_approx(&mut r)?)
        } else {
            None
        };
        r.finish()?;
        let snapshot = SessionSnapshot {
            n_subjects,
            shards,
            total,
            history,
            stages,
            marginals,
            pending_selection,
            sparse,
            approx,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }
}

impl From<ByteError> for SnapshotError {
    fn from(e: ByteError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// A `u64` count followed by that many `f64` bit patterns.
fn put_f64_list(w: &mut Writer, values: &[f64]) {
    w.u64(values.len() as u64);
    w.f64s(values);
}

fn read_f64_list(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<f64>, ByteError> {
    let len = r.count64(8, what)?;
    r.f64s(len)
}

fn read_approx(r: &mut Reader<'_>) -> Result<ApproxSnapshot, SnapshotError> {
    let kind = ApproxKind::from_byte(r.u8()?)?;
    // Smallest history entry: an empty pool's length plus the outcome byte.
    let history_len = r.count64(5, "approx history")?;
    let history = (0..history_len)
        .map(|_| {
            let pool_len = r.count32(4, "approx pool")?;
            let pool = (0..pool_len).map(|_| r.u32()).collect::<Result<_, _>>()?;
            Ok((pool, r.u8()? != 0))
        })
        .collect::<Result<_, ByteError>>()?;
    let particles = match r.u8()? {
        0 => None,
        1 => {
            let count = r.count64(8, "particle")?;
            let words_per_particle = r.u64()?;
            let claimed = (count as u64).saturating_mul(words_per_particle);
            let word_count = r.fits(claimed, 8, "particle word")?;
            Some(ParticleBlock {
                words_per_particle: words_per_particle as usize,
                words: r.u64s(word_count)?,
                log_weights: r.f64s(count)?,
                rng: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            })
        }
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "bad particle-block tag {other}"
            )))
        }
    };
    Ok(ApproxSnapshot {
        kind,
        history,
        particles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_lattice::bytes;

    fn sample() -> SessionSnapshot {
        SessionSnapshot {
            n_subjects: 2,
            shards: vec![vec![0.25, 0.5], vec![0.125, 0.0625]],
            total: 0.9375,
            history: vec![(State::from_subjects([0, 1]), true), (State(1), false)],
            stages: 2,
            marginals: vec![0.4, 0.6],
            pending_selection: Some((vec![1, 0], vec![0.9375, 0.5, 0.25])),
            sparse: None,
            approx: None,
        }
    }

    fn sample_sparse() -> SessionSnapshot {
        SessionSnapshot {
            n_subjects: 3,
            shards: vec![],
            total: 0.875,
            history: vec![(State(5), true)],
            stages: 4,
            marginals: vec![],
            pending_selection: None,
            sparse: Some(SparseSnapshot {
                entries: vec![(State(1), 0.5), (State(5), 0.375)],
                pruned_mass: 0.125,
            }),
            approx: None,
        }
    }

    fn sample_bp() -> SessionSnapshot {
        SessionSnapshot {
            n_subjects: 256,
            shards: vec![],
            total: 1.0,
            history: vec![],
            stages: 3,
            marginals: vec![],
            pending_selection: None,
            sparse: None,
            approx: Some(ApproxSnapshot {
                kind: ApproxKind::Bp,
                history: vec![(vec![0, 64, 200], true), (vec![1, 255], false)],
                particles: None,
            }),
        }
    }

    fn sample_particle() -> SessionSnapshot {
        SessionSnapshot {
            n_subjects: 70,
            shards: vec![],
            total: 1.0,
            history: vec![],
            stages: 1,
            marginals: vec![],
            pending_selection: None,
            sparse: None,
            approx: Some(ApproxSnapshot {
                kind: ApproxKind::Particle,
                history: vec![(vec![3, 69], true)],
                particles: Some(ParticleBlock {
                    words_per_particle: 2,
                    words: vec![0b101, 0, u64::MAX, 0b11],
                    log_weights: vec![-0.25, -1.5],
                    rng: [1, 2, 3, 4],
                }),
            }),
        }
    }

    fn samples() -> [SessionSnapshot; 5] {
        let mut dense = sample();
        dense.shards = vec![dense.shards.concat()];
        dense.pending_selection = None;
        [
            dense,
            sample(),
            sample_sparse(),
            sample_bp(),
            sample_particle(),
        ]
    }

    fn reencode(bytes: &[u8]) -> Result<Vec<u8>, SnapshotError> {
        SessionSnapshot::from_bytes(bytes).map(|snap| snap.to_bytes())
    }

    #[test]
    fn every_kind_round_trips_and_survives_the_tamper_harness() {
        // Dense/sharded snapshots keep v1, so pre-sparse archives stay
        // byte-identical; the sparse and approx sections bump the version.
        for (snap, version) in samples().into_iter().zip([1u8, 1, 2, 3, 3]) {
            assert!(snap.validate().is_ok());
            let bytes = snap.to_bytes();
            assert_eq!(bytes[8..12], [version, 0, 0, 0]);
            assert_eq!(SessionSnapshot::from_bytes(&bytes).unwrap(), snap);
            bytes::check(&bytes, reencode);
        }
    }

    #[test]
    fn format_violations_are_named() {
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = SessionSnapshot::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let mut vers = bytes;
        vers[8] = 99;
        let err = SessionSnapshot::from_bytes(&vers).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // The approx kind byte follows the (absent) pending-selection tag:
        // header 12, n/stages/total 24, three empty counts 24, tag 1.
        let mut bad_kind = sample_bp().to_bytes();
        assert_eq!(bad_kind[61], ApproxKind::Bp.to_byte());
        bad_kind[61] = 7;
        let err = SessionSnapshot::from_bytes(&bad_kind).unwrap_err();
        assert!(err.to_string().contains("approx kind"), "{err}");
    }

    /// Regression (allocation amplification from the wire): a count that
    /// claims as many *elements* as there are bytes left used to pass the
    /// bytes-not-elements check and reserve 8-24x the buffer before the
    /// truncation surfaced. Each is now rejected at the count, by name.
    #[test]
    fn counts_claiming_every_remaining_byte_are_rejected_at_the_count() {
        let check = |bytes: &[u8], count_at: usize, what: &str| {
            assert!(bytes.len() < 200);
            // Counts and buffers are all under 256, so the count's low
            // byte is the whole count.
            let mut bad = bytes.to_vec();
            let claimed = bytes.len() - count_at - 8;
            bad[count_at] = claimed as u8;
            let err = SessionSnapshot::from_bytes(&bad).unwrap_err().to_string();
            let want = format!("{what} count {claimed} at byte {}", count_at + 8);
            assert!(err.contains(&want), "{err}");
        };
        let sharded = sample().to_bytes();
        check(&sharded, 36, "shard");
        check(&sharded, 44, "shard value");
        // Two shards of two values, then two 9-byte history entries.
        let marginals_at = 44 + 2 * (8 + 16) + 8 + 18;
        check(&sharded, marginals_at - 26, "history");
        check(&sharded, marginals_at, "marginals");
        check(&sharded, marginals_at + 8 + 16 + 1, "pending order");
        let sparse = sample_sparse().to_bytes();
        check(&sparse, sparse.len() - 8 - 32 - 8, "sparse entry");
        let particle = sample_particle().to_bytes();
        check(&particle, 61 + 1, "approx history");
        let block_at = particle.len() - 32 - 16 - 32 - 16;
        check(&particle, block_at, "particle");
        // A words-per-particle that multiplies past the buffer (or u64).
        for wpp in [[particle.len() as u8, 0, 0, 0, 0, 0, 0, 0], [0xFF; 8]] {
            let mut bad = particle.clone();
            bad[block_at + 8..block_at + 16].copy_from_slice(&wpp);
            let err = SessionSnapshot::from_bytes(&bad).unwrap_err().to_string();
            assert!(err.contains("particle word count"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_bad_sparse_sections() {
        let mut both = sample_sparse();
        both.shards = vec![vec![0.0; 8]];
        assert!(both.validate().is_err());
        let mut dup = sample_sparse();
        dup.sparse.as_mut().unwrap().entries = vec![(State(1), 0.5), (State(1), 0.5)];
        assert!(dup.validate().is_err());
        let mut unsorted = sample_sparse();
        unsorted.sparse.as_mut().unwrap().entries = vec![(State(5), 0.5), (State(1), 0.5)];
        assert!(unsorted.validate().is_err());
        let mut out_of_range = sample_sparse();
        out_of_range.sparse.as_mut().unwrap().entries = vec![(State(9), 0.5)];
        assert!(out_of_range.validate().is_err());
        let mut bad_mass = sample_sparse();
        bad_mass.sparse.as_mut().unwrap().pruned_mass = f64::NAN;
        assert!(bad_mass.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_approx_sections() {
        // An approx snapshot smuggling dense shards.
        let mut both = sample_bp();
        both.shards = vec![vec![0.0; 4]];
        assert!(both.validate().is_err());
        // Unsorted pool.
        let mut unsorted = sample_bp();
        unsorted.approx.as_mut().unwrap().history[0].0 = vec![5, 2];
        assert!(unsorted.validate().is_err());
        // Out-of-range subject.
        let mut oor = sample_bp();
        oor.approx.as_mut().unwrap().history[0].0 = vec![256];
        assert!(oor.validate().is_err());
        // BP with a particle block / particle without one.
        let mut bp_pb = sample_bp();
        bp_pb.approx.as_mut().unwrap().particles = sample_particle().approx.unwrap().particles;
        assert!(bp_pb.validate().is_err());
        let mut no_pb = sample_particle();
        no_pb.approx.as_mut().unwrap().particles = None;
        assert!(no_pb.validate().is_err());
        // Particle block that does not tile count × words_per_particle.
        let mut ragged = sample_particle();
        ragged
            .approx
            .as_mut()
            .unwrap()
            .particles
            .as_mut()
            .unwrap()
            .words
            .pop();
        assert!(ragged.validate().is_err());
        // NaN log-weight.
        let mut nan = sample_particle();
        nan.approx
            .as_mut()
            .unwrap()
            .particles
            .as_mut()
            .unwrap()
            .log_weights[0] = f64::NAN;
        assert!(nan.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_shapes() {
        let mut snap = sample();
        assert!(snap.validate().is_ok());
        snap.shards[0].pop();
        assert!(snap.validate().is_err());
        let mut bad_marginals = sample();
        bad_marginals.marginals.push(0.5);
        assert!(bad_marginals.validate().is_err());
        let mut bad_pending = sample();
        bad_pending.pending_selection = Some((vec![0], vec![1.0]));
        assert!(bad_pending.validate().is_err());
    }
}
