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
        let mut out = Vec::with_capacity(64 + self.state_count() * 8);
        let version = if self.approx.is_some() {
            VERSION_APPROX
        } else if self.sparse.is_some() {
            VERSION_SPARSE
        } else {
            VERSION_DENSE
        };
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(self.n_subjects as u64).to_le_bytes());
        out.extend_from_slice(&(self.stages as u64).to_le_bytes());
        out.extend_from_slice(&self.total.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&(shard.len() as u64).to_le_bytes());
            for v in shard {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.history.len() as u64).to_le_bytes());
        for (pool, outcome) in &self.history {
            out.extend_from_slice(&pool.bits().to_le_bytes());
            out.push(u8::from(*outcome));
        }
        out.extend_from_slice(&(self.marginals.len() as u64).to_le_bytes());
        for m in &self.marginals {
            out.extend_from_slice(&m.to_bits().to_le_bytes());
        }
        match &self.pending_selection {
            None => out.push(0),
            Some((order, masses)) => {
                out.push(1);
                out.extend_from_slice(&(order.len() as u64).to_le_bytes());
                for &i in order {
                    out.extend_from_slice(&(i as u64).to_le_bytes());
                }
                out.extend_from_slice(&(masses.len() as u64).to_le_bytes());
                for v in masses {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
        if let Some(sp) = &self.sparse {
            out.extend_from_slice(&(sp.entries.len() as u64).to_le_bytes());
            for (s, p) in &sp.entries {
                out.extend_from_slice(&s.bits().to_le_bytes());
                out.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&sp.pruned_mass.to_bits().to_le_bytes());
        }
        if let Some(ap) = &self.approx {
            out.push(ap.kind.to_byte());
            out.extend_from_slice(&(ap.history.len() as u64).to_le_bytes());
            for (pool, outcome) in &ap.history {
                out.extend_from_slice(&(pool.len() as u32).to_le_bytes());
                for &i in pool {
                    out.extend_from_slice(&i.to_le_bytes());
                }
                out.push(u8::from(*outcome));
            }
            match &ap.particles {
                None => out.push(0),
                Some(pb) => {
                    out.push(1);
                    out.extend_from_slice(&(pb.log_weights.len() as u64).to_le_bytes());
                    out.extend_from_slice(&(pb.words_per_particle as u64).to_le_bytes());
                    for w in &pb.words {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                    for lw in &pb.log_weights {
                        out.extend_from_slice(&lw.to_bits().to_le_bytes());
                    }
                    for r in &pb.rng {
                        out.extend_from_slice(&r.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Decode the binary format; every structural violation is a typed
    /// [`SnapshotError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { bytes, at: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(SnapshotError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
        if version != VERSION_DENSE && version != VERSION_SPARSE && version != VERSION_APPROX {
            return Err(SnapshotError::Corrupt(format!(
                "unsupported version {version}"
            )));
        }
        let n_subjects = r.u64()? as usize;
        let stages = r.u64()? as usize;
        let total = f64::from_bits(r.u64()?);
        let shard_count = r.len_prefix()?;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let len = r.len_prefix()?;
            let mut shard = Vec::with_capacity(len);
            for _ in 0..len {
                shard.push(f64::from_bits(r.u64()?));
            }
            shards.push(shard);
        }
        let history_len = r.len_prefix()?;
        let mut history = Vec::with_capacity(history_len);
        for _ in 0..history_len {
            let pool = State(r.u64()?);
            let outcome = r.take(1)?[0] != 0;
            history.push((pool, outcome));
        }
        let marginals_len = r.len_prefix()?;
        let mut marginals = Vec::with_capacity(marginals_len);
        for _ in 0..marginals_len {
            marginals.push(f64::from_bits(r.u64()?));
        }
        let pending_selection = match r.take(1)?[0] {
            0 => None,
            1 => {
                let order_len = r.len_prefix()?;
                let mut order = Vec::with_capacity(order_len);
                for _ in 0..order_len {
                    order.push(r.u64()? as usize);
                }
                let masses_len = r.len_prefix()?;
                let mut masses = Vec::with_capacity(masses_len);
                for _ in 0..masses_len {
                    masses.push(f64::from_bits(r.u64()?));
                }
                Some((order, masses))
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "bad pending-selection tag {other}"
                )))
            }
        };
        let sparse = if version == VERSION_SPARSE {
            let entries_len = r.len_prefix()?;
            let mut entries = Vec::with_capacity(entries_len);
            for _ in 0..entries_len {
                let s = State(r.u64()?);
                let p = f64::from_bits(r.u64()?);
                entries.push((s, p));
            }
            let pruned_mass = f64::from_bits(r.u64()?);
            Some(SparseSnapshot {
                entries,
                pruned_mass,
            })
        } else {
            None
        };
        let approx = if version == VERSION_APPROX {
            let kind = ApproxKind::from_byte(r.take(1)?[0])?;
            let hist_len = r.len_prefix()?;
            let mut ap_history = Vec::with_capacity(hist_len);
            for _ in 0..hist_len {
                let pool_len = r.u32()? as usize;
                let mut pool = Vec::with_capacity(pool_len.min(4096));
                for _ in 0..pool_len {
                    pool.push(r.u32()?);
                }
                let outcome = r.take(1)?[0] != 0;
                ap_history.push((pool, outcome));
            }
            let particles = match r.take(1)?[0] {
                0 => None,
                1 => {
                    let count = r.len_prefix()?;
                    let words_per_particle = r.u64()? as usize;
                    let word_count = count
                        .checked_mul(words_per_particle)
                        .filter(|&w| w <= (bytes.len() - r.at) / 8)
                        .ok_or_else(|| {
                            SnapshotError::Corrupt(format!(
                                "particle block {count}×{words_per_particle} words overflows buffer"
                            ))
                        })?;
                    let mut words = Vec::with_capacity(word_count);
                    for _ in 0..word_count {
                        words.push(r.u64()?);
                    }
                    let mut log_weights = Vec::with_capacity(count);
                    for _ in 0..count {
                        log_weights.push(f64::from_bits(r.u64()?));
                    }
                    let mut rng = [0u64; 4];
                    for slot in &mut rng {
                        *slot = r.u64()?;
                    }
                    Some(ParticleBlock {
                        words_per_particle,
                        words,
                        log_weights,
                        rng,
                    })
                }
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "bad particle-block tag {other}"
                    )))
                }
            };
            Some(ApproxSnapshot {
                kind,
                history: ap_history,
                particles,
            })
        } else {
            None
        };
        if r.at != bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s)",
                bytes.len() - r.at
            )));
        }
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

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.at + n > self.bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "truncated at byte {} (wanted {n} more)",
                self.at
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A length prefix, sanity-capped so a corrupt buffer cannot request an
    /// absurd allocation.
    fn len_prefix(&mut self) -> Result<usize, SnapshotError> {
        let len = self.u64()?;
        let remaining = (self.bytes.len() - self.at) as u64;
        if len > remaining {
            return Err(SnapshotError::Corrupt(format!(
                "length prefix {len} exceeds remaining {remaining} byte(s)"
            )));
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn byte_codec_round_trips_bit_for_bit() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        for (a, b) in snap
            .shards
            .iter()
            .flatten()
            .zip(back.shards.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // No pending selection round-trips too.
        let mut bare = snap;
        bare.pending_selection = None;
        bare.marginals.clear();
        assert_eq!(SessionSnapshot::from_bytes(&bare.to_bytes()).unwrap(), bare);
    }

    #[test]
    fn corrupt_buffers_are_typed_errors() {
        let snap = sample();
        let bytes = snap.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            SessionSnapshot::from_bytes(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // Truncation at every prefix is an error, never a panic.
        for cut in [0, 7, 11, 20, 40, bytes.len() - 1] {
            assert!(SessionSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(SessionSnapshot::from_bytes(&long).is_err());
        // Unsupported version.
        let mut vers = bytes;
        vers[8] = 99;
        let err = SessionSnapshot::from_bytes(&vers).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn sparse_codec_round_trips_bit_for_bit() {
        let snap = sample_sparse();
        assert!(snap.validate().is_ok());
        let bytes = snap.to_bytes();
        // Sparse snapshots carry the bumped version; dense ones keep v1, so
        // pre-sparse archives stay byte-identical.
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        assert_eq!(
            u32::from_le_bytes(sample().to_bytes()[8..12].try_into().unwrap()),
            1
        );
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        let (a, b) = (snap.sparse.as_ref().unwrap(), back.sparse.as_ref().unwrap());
        assert_eq!(a.pruned_mass.to_bits(), b.pruned_mass.to_bits());
        for ((sa, pa), (sb, pb)) in a.entries.iter().zip(&b.entries) {
            assert_eq!(sa, sb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        // Truncations inside the sparse section are typed errors.
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() - 20] {
            assert!(SessionSnapshot::from_bytes(&bytes[..cut]).is_err());
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
    fn approx_codec_round_trips_bit_for_bit() {
        for snap in [sample_bp(), sample_particle()] {
            assert!(snap.validate().is_ok());
            let bytes = snap.to_bytes();
            assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);
            let back = SessionSnapshot::from_bytes(&bytes).unwrap();
            assert_eq!(back, snap);
        }
        let bytes = sample_particle().to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        let (a, b) = (
            sample_particle().approx.unwrap().particles.unwrap(),
            back.approx.unwrap().particles.unwrap(),
        );
        assert_eq!(a.rng, b.rng);
        for (x, y) in a.log_weights.iter().zip(&b.log_weights) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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
    fn approx_codec_rejects_tampering() {
        let bytes = sample_particle().to_bytes();
        // Truncation anywhere inside the approx section is a typed error.
        for cut in (bytes.len() - 60)..bytes.len() {
            assert!(SessionSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // Unknown approx kind byte. The kind byte sits right after the
        // pending-selection tag; find it by re-encoding with a poked kind.
        let base = sample_bp();
        let clean = base.to_bytes();
        let kind_at = clean
            .len()
            - base
                .approx
                .as_ref()
                .unwrap()
                .history
                .iter()
                .map(|(p, _)| 4 + 4 * p.len() + 1)
                .sum::<usize>()
            - 8 // history count
            - 1 // particle tag
            - 1; // the kind byte itself
        let mut bad_kind = clean.clone();
        bad_kind[kind_at] = 7;
        let err = SessionSnapshot::from_bytes(&bad_kind).unwrap_err();
        assert!(err.to_string().contains("approx kind"), "{err}");
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
