//! Cohort checkpoint format: the session snapshot plus the cohort's
//! static identity, with a versioned byte codec so a cohort can be evicted
//! to disk (or shipped between service instances) and resumed bit-for-bit.

use serde::{Deserialize, Serialize};

use sbgt::{SessionSnapshot, SnapshotError};
use sbgt_lattice::bytes::{Reader, Writer};
use sbgt_lattice::BigState;

use crate::cohort::CohortSpec;

const MAGIC: &[u8; 8] = b"SBGTCKPT";
/// Current write version. v3 widened the ground truth from one u64 to a
/// length-prefixed word list, since approximate cohorts hold more than 64
/// subjects; v1/v2 checkpoints decode their single truth word into word 0.
/// v2 added the tenant id after the cohort seed; v1 checkpoints
/// (pre-tenant) still decode, landing on tenant 0 — the same lane untagged
/// traffic uses, so a pre-QoS checkpoint resumes with identical scheduling
/// semantics.
const VERSION: u32 = 3;

/// Which session kind the cohort was running when frozen. A checkpoint
/// restores to the **same** kind regardless of the live placement policy,
/// keeping the arithmetic path (and hence the bit-exact trajectory)
/// identical across the freeze.
///
/// The wire encoding is one byte: `Sharded = 0`, `Dense = 1` — exactly the
/// `u8::from(dense)` flag older checkpoints wrote, so they decode
/// unchanged — `Sparse = 2`, and the approximate backends `Bp = 3`,
/// `Particle = 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CohortKind {
    /// Engine-sharded dense session.
    Sharded,
    /// Dense in-memory session.
    Dense,
    /// Pruned sparse session.
    Sparse,
    /// Loopy-BP approximate session.
    Bp,
    /// SMC particle approximate session.
    Particle,
}

impl CohortKind {
    /// Stable wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            CohortKind::Sharded => 0,
            CohortKind::Dense => 1,
            CohortKind::Sparse => 2,
            CohortKind::Bp => 3,
            CohortKind::Particle => 4,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, SnapshotError> {
        match byte {
            0 => Ok(CohortKind::Sharded),
            1 => Ok(CohortKind::Dense),
            2 => Ok(CohortKind::Sparse),
            3 => Ok(CohortKind::Bp),
            4 => Ok(CohortKind::Particle),
            other => Err(SnapshotError::Corrupt(format!(
                "unknown cohort kind byte {other}"
            ))),
        }
    }
}

/// A frozen cohort: everything needed to rebuild its actor and continue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortCheckpoint {
    /// The cohort's static identity (id, seed, risks, ground truth).
    pub spec: CohortSpec,
    /// The session kind the cohort ran (restores to the same kind).
    pub kind: CohortKind,
    /// Rollback-and-replay cycles consumed before the checkpoint.
    pub recoveries: u64,
    /// Full session state.
    pub snapshot: SessionSnapshot,
}

impl CohortCheckpoint {
    /// Serialize: header, spec, flags, then the embedded session snapshot
    /// (length-prefixed, delegating to its own versioned codec).
    pub fn to_bytes(&self) -> Vec<u8> {
        let snapshot = self.snapshot.to_bytes();
        let mut w = Writer::with_capacity(64 + self.spec.risks.len() * 8 + snapshot.len());
        w.raw(MAGIC);
        w.u32(VERSION);
        w.u64(self.spec.id);
        w.u64(self.spec.seed);
        w.u32(self.spec.tenant);
        w.u64(self.spec.risks.len() as u64);
        w.f64s(&self.spec.risks);
        let truth_words = self.spec.truth.words();
        w.u32(truth_words.len() as u32);
        w.u64s(truth_words);
        w.u8(self.kind.to_byte());
        w.u64(self.recoveries);
        w.u64(snapshot.len() as u64);
        w.raw(&snapshot);
        w.into_bytes()
    }

    /// Decode; every structural violation (including one inside the
    /// embedded snapshot) is a typed [`SnapshotError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(SnapshotError::Corrupt("bad checkpoint magic".into()));
        }
        let version = r.u32()?;
        if version == 0 || version > VERSION {
            return Err(SnapshotError::Corrupt(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let id = r.u64()?;
        let seed = r.u64()?;
        let tenant = if version >= 2 { r.u32()? } else { 0 };
        let n_risks = r.count64(8, "risk")?;
        let risks = r.f64s(n_risks)?;
        let truth = if version >= 3 {
            let n_words = r.count32(8, "truth word")?;
            BigState::from_words(r.u64s(n_words)?)
        } else {
            // v1/v2 wrote the 16-subject lattice state as one word.
            BigState::from_words(vec![r.u64()?])
        };
        let kind = CohortKind::from_byte(r.u8()?)?;
        let recoveries = r.u64()?;
        let snap_len = r.count64(1, "snapshot byte")?;
        let snapshot = SessionSnapshot::from_bytes(r.take(snap_len)?)?;
        r.finish()?;
        if snapshot.n_subjects != risks.len() {
            return Err(SnapshotError::Corrupt(format!(
                "spec holds {} risks but snapshot covers {} subjects",
                risks.len(),
                snapshot.n_subjects
            )));
        }
        Ok(CohortCheckpoint {
            spec: CohortSpec {
                id,
                seed,
                tenant,
                risks,
                truth,
            },
            kind,
            recoveries,
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt::{ApproxKind, ApproxSnapshot, ParticleBlock, SparseSnapshot};
    use sbgt_lattice::{bytes, State};

    fn sample() -> CohortCheckpoint {
        CohortCheckpoint {
            spec: CohortSpec {
                id: 12,
                seed: 0xDEAD_BEEF,
                tenant: 3,
                risks: vec![0.02, 0.05, 0.11],
                truth: BigState::from_subjects([1]),
            },
            kind: CohortKind::Dense,
            recoveries: 2,
            snapshot: SessionSnapshot {
                n_subjects: 3,
                shards: vec![vec![0.1; 8]],
                total: 0.8,
                history: vec![(State(3), false)],
                stages: 1,
                marginals: vec![],
                pending_selection: None,
                sparse: None,
                approx: None,
            },
        }
    }

    /// A checkpoint holding an approximate-session snapshot of `kind`,
    /// over a cohort wide enough that the truth spans two words.
    fn approx_sample(kind: CohortKind) -> CohortCheckpoint {
        let approx_kind = match kind {
            CohortKind::Bp => ApproxKind::Bp,
            CohortKind::Particle => ApproxKind::Particle,
            other => panic!("not an approx kind: {other:?}"),
        };
        let particles = (approx_kind == ApproxKind::Particle).then(|| ParticleBlock {
            words_per_particle: 2,
            words: vec![0b1, 0b10, 0b11, 0],
            log_weights: vec![-0.5, -1.5],
            rng: [1, 2, 3, 4],
        });
        CohortCheckpoint {
            spec: CohortSpec {
                id: 9,
                seed: 77,
                tenant: 1,
                risks: vec![0.05; 70],
                truth: BigState::from_subjects([3, 69]),
            },
            kind,
            recoveries: 0,
            snapshot: SessionSnapshot {
                n_subjects: 70,
                shards: vec![],
                total: 1.0,
                history: vec![],
                stages: 1,
                marginals: vec![],
                pending_selection: None,
                sparse: None,
                approx: Some(ApproxSnapshot {
                    kind: approx_kind,
                    history: vec![(vec![0, 3, 69], true)],
                    particles,
                }),
            },
        }
    }

    /// One checkpoint of each of the five cohort kinds.
    fn samples() -> [CohortCheckpoint; 5] {
        let mut sharded = sample();
        sharded.kind = CohortKind::Sharded;
        sharded.snapshot.shards = vec![vec![0.1; 4], vec![0.1; 4]];
        sharded.snapshot.marginals = vec![0.2, 0.3, 0.4];
        sharded.snapshot.pending_selection = Some((vec![2, 0, 1], vec![0.8, 0.4, 0.2, 0.1]));
        let mut sparse = sample();
        sparse.kind = CohortKind::Sparse;
        sparse.snapshot.shards = vec![];
        sparse.snapshot.total = 0.75;
        sparse.snapshot.sparse = Some(SparseSnapshot {
            entries: vec![(State(1), 0.5), (State(5), 0.25)],
            pruned_mass: 0.25,
        });
        [
            sample(),
            sharded,
            sparse,
            approx_sample(CohortKind::Bp),
            approx_sample(CohortKind::Particle),
        ]
    }

    fn reencode(bytes: &[u8]) -> Result<Vec<u8>, SnapshotError> {
        CohortCheckpoint::from_bytes(bytes).map(|ckpt| ckpt.to_bytes())
    }

    /// Byte offset of the risk count in the v3 layout (magic, version, id,
    /// seed, tenant).
    const RISK_COUNT_AT: usize = 8 + 4 + 8 + 8 + 4;

    /// Byte offset of the kind flag: the risks, then the truth word count
    /// and words.
    fn kind_offset(ckpt: &CohortCheckpoint) -> usize {
        RISK_COUNT_AT + 8 + ckpt.spec.risks.len() * 8 + 4 + ckpt.spec.truth.words().len() * 8
    }

    #[test]
    fn every_kind_round_trips_and_survives_the_tamper_harness() {
        // Sharded/Dense encode to the exact bytes the old `bool` flag
        // wrote; Sparse and the approximate backends claim the next values.
        for (ckpt, kind_byte) in samples().into_iter().zip([1u8, 0, 2, 3, 4]) {
            let bytes = ckpt.to_bytes();
            assert_eq!(bytes[kind_offset(&ckpt)], kind_byte);
            assert_eq!(CohortCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
            bytes::check(&bytes, reencode);
        }
        assert!(approx_sample(CohortKind::Bp).spec.truth.words().len() > 1);
    }

    /// Hand-encode the v1 layout (no tenant field, one-word truth) and the
    /// v2 layout (tenant present, truth still one word).
    fn legacy_layout(ckpt: &CohortCheckpoint, version: u32) -> Vec<u8> {
        let snapshot = ckpt.snapshot.to_bytes();
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u32(version);
        w.u64(ckpt.spec.id);
        w.u64(ckpt.spec.seed);
        if version >= 2 {
            w.u32(ckpt.spec.tenant);
        }
        w.u64(ckpt.spec.risks.len() as u64);
        w.f64s(&ckpt.spec.risks);
        w.u64(ckpt.spec.truth.words().first().copied().unwrap_or(0));
        w.u8(ckpt.kind.to_byte());
        w.u64(ckpt.recoveries);
        w.u64(snapshot.len() as u64);
        w.raw(&snapshot);
        w.into_bytes()
    }

    /// v1 checkpoints still decode, landing on tenant 0 (the default
    /// lane); v2 checkpoints decode their single truth word into the same
    /// `BigState`. Both re-encode as v3, so the harness checks them
    /// against the v3 bytes of what they must decode to.
    #[test]
    fn v1_and_v2_checkpoints_decode_and_survive_the_tamper_harness() {
        let ckpt = sample();
        let mut on_default_lane = ckpt.clone();
        on_default_lane.spec.tenant = 0;
        for (version, expected) in [(1, on_default_lane), (2, ckpt.clone())] {
            let old = legacy_layout(&ckpt, version);
            assert_eq!(CohortCheckpoint::from_bytes(&old).unwrap(), expected);
            bytes::check_against(&old, &expected.to_bytes(), reencode);
        }
    }

    #[test]
    fn subject_count_mismatch_is_rejected() {
        let mut ckpt = sample();
        ckpt.spec.risks.push(0.2);
        assert!(CohortCheckpoint::from_bytes(&ckpt.to_bytes()).is_err());
    }

    #[test]
    fn format_violations_are_named() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        let err = CohortCheckpoint::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("bad checkpoint magic"), "{err}");
        let mut bad = bytes.clone();
        bad[8] = 4;
        let err = CohortCheckpoint::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("version 4"), "{err}");
        let mut bad = bytes;
        bad[kind_offset(&ckpt)] = 5;
        let err = CohortCheckpoint::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown cohort kind"), "{err}");
    }

    /// Regression (allocation amplification from the wire): the risk and
    /// truth-word counts were bounded by the *whole* buffer, the snapshot
    /// length not at all before its `take`. Each is now bounded by the
    /// bytes left, and a count claiming all of them as 8-byte elements is
    /// rejected at the count, by name.
    #[test]
    fn counts_claiming_every_remaining_byte_are_rejected_at_the_count() {
        let mut ckpt = sample();
        ckpt.spec.risks.truncate(2);
        ckpt.snapshot.n_subjects = 2;
        ckpt.snapshot.shards = vec![vec![0.25; 4]];
        let bytes = ckpt.to_bytes();
        assert!(bytes.len() < 200);
        // Counts and the buffer are all under 256, so a count's low byte
        // is the whole count.
        let poke = |at: usize, width: usize, what: &str| {
            let claimed = bytes.len() - at - width;
            let mut bad = bytes.clone();
            bad[at] = claimed as u8;
            let err = CohortCheckpoint::from_bytes(&bad).unwrap_err().to_string();
            let want = format!("{what} count {claimed} at byte {}", at + width);
            assert!(err.contains(&want), "{err}");
        };
        poke(RISK_COUNT_AT, 8, "risk");
        poke(RISK_COUNT_AT + 8 + 2 * 8, 4, "truth word");
        // The embedded snapshot's own counts fail the same way through the
        // checkpoint: its shard count sits 36 bytes into the blob.
        let snapshot_at = kind_offset(&ckpt) + 1 + 8 + 8;
        let mut bad = bytes.clone();
        bad[snapshot_at + 36] = (bytes.len() - snapshot_at - 44) as u8;
        let err = CohortCheckpoint::from_bytes(&bad).unwrap_err().to_string();
        assert!(err.contains("shard count"), "{err}");
        // A snapshot length one past the end is rejected at the length.
        let mut bad = bytes.clone();
        bad[snapshot_at - 8] += 1;
        let err = CohortCheckpoint::from_bytes(&bad).unwrap_err().to_string();
        assert!(err.contains("snapshot byte count"), "{err}");
    }
}
