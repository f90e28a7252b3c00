//! Bit pins for the approximate backends.
//!
//! Both backends promise the same float schedule from one release to the
//! next: a kernel rewrite may change how a relaxation or a particle update
//! is computed, never what it computes. This suite runs seeded cohorts on
//! `approx-n128`'s assay through each backend and compares a digest of
//! every bit they produce with `tests/data/parent_approx.txt`:
//!
//! * per round: BP's marginals, sweep count and per-sweep residuals, and the
//!   particle cloud's marginals;
//! * at the end: tests, stages and the final marginals;
//! * particle runs only: the cloud's words, log-weights and RNG state;
//! * the `SBGTSNAP` bytes at round 5, which are restored and continued to
//!   the same final bits as the uninterrupted run.
//!
//! The golden file was written before the kernels were rewritten and must
//! not be regenerated to make a change pass. To print the current lines:
//! `cargo test -p sbgt-approx --test bits -- --ignored --nocapture`.

use sbgt::{RoundStep, SbgtConfig, SessionOutcome, SessionSnapshot};
use sbgt_approx::{
    relax_marginals_traced, BigState, BpBackend, BpConfig, BpSession, ParticleBackend,
    ParticleConfig, ParticleSession,
};
use sbgt_response::{BinaryDilutionModel, Dilution};

const GOLDEN: &str = include_str!("data/parent_approx.txt");

/// The round at which each run is snapshotted, encoded and restored.
const RESTORE_ROUND: usize = 5;

/// `(seed, cohort size, flip one pool in k (0: never))`.
const COHORTS: [(u64, usize, u64); 4] = [(1, 128, 0), (2, 128, 0), (3, 128, 29), (4, 66, 0)];

fn model() -> BinaryDilutionModel {
    BinaryDilutionModel::new(0.99, 0.995, Dilution::None)
}

fn config() -> SbgtConfig {
    SbgtConfig {
        max_stages: 2000,
        ..SbgtConfig::default()
    }
}

fn particle_config(seed: u64) -> ParticleConfig {
    ParticleConfig {
        particles: 1024,
        seed: 0x5EED_0000 + seed,
        ..ParticleConfig::default()
    }
}

fn mix(seed: u64, i: u64) -> f64 {
    let h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i + 1)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn risks(seed: u64, n: usize) -> Vec<f64> {
    (0..n as u64).map(|i| 0.02 + 0.06 * mix(seed, i)).collect()
}

fn truth(seed: u64, risks: &[f64]) -> BigState {
    BigState::from_subjects(
        (0..risks.len()).filter(|&i| mix(seed ^ 0xA5A5, i as u64 + 1000) < risks[i]),
    )
}

/// A lab that reads the truth, and misreads the pools whose word digest
/// falls in one residue class mod `flip_every`. A pure function of the
/// pool, so a restored session faces the same outcomes.
fn lab(truth: BigState, flip_every: u64) -> impl Fn(&BigState) -> bool {
    move |pool| {
        let misread = flip_every > 0 && digest_u64(pool.words().iter().copied()) % flip_every == 0;
        truth.intersects(pool) ^ misread
    }
}

/// FNV-1a over 64-bit words.
fn digest_u64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn digest(words: impl IntoIterator<Item = u64>) -> String {
    format!("{:016x}", digest_u64(words))
}

fn float_digest(xs: &[f64]) -> String {
    digest(xs.iter().map(|x| x.to_bits()))
}

fn byte_digest(bytes: &[u8]) -> String {
    digest(bytes.iter().map(|&b| u64::from(b)))
}

fn end_line(tag: &str, out: &SessionOutcome) -> String {
    format!(
        "{tag} end classified {} tests {} stages {} marginals {}",
        out.classification.is_terminal(),
        out.tests,
        out.stages,
        float_digest(&out.marginals)
    )
}

fn bp_lines(seed: u64, n: usize, flip_every: u64, lines: &mut Vec<String>) {
    let tag = format!("bp seed {seed} n {n}");
    let risks = risks(seed, n);
    let logits: Vec<f64> = risks.iter().map(|&r| (r / (1.0 - r)).ln()).collect();
    let mut session: BpSession<_> =
        BpBackend::open(&risks, model(), config(), BpConfig::default()).unwrap();
    let lab = lab(truth(seed, &risks), flip_every);
    let mut restored = None;
    let mut round = 0;
    let out = loop {
        let (marginals, trace) =
            relax_marginals_traced(&logits, session.backend().factors(), &BpConfig::default());
        lines.push(format!(
            "{tag} round {round} marginals {} sweeps {} residuals {}",
            float_digest(&marginals),
            trace.sweeps,
            float_digest(&trace.residuals)
        ));
        if round == RESTORE_ROUND {
            let bytes = session.snapshot().to_bytes();
            lines.push(format!("{tag} snapshot {}", byte_digest(&bytes)));
            let snapshot = SessionSnapshot::from_bytes(&bytes).unwrap();
            restored = Some(
                BpBackend::restore(&snapshot, &risks, model(), config(), BpConfig::default())
                    .unwrap(),
            );
        }
        match session.round(None, &lab) {
            RoundStep::Progressed => round += 1,
            RoundStep::Finished(out) => {
                assert_eq!(out.marginals, marginals, "{tag}: round read-out");
                break out;
            }
        }
    };
    lines.push(end_line(&tag, &out));
    let mut resumed = restored.expect("cohort runs past the restore round");
    let rest = resumed.run(None, &lab);
    assert_eq!(
        end_line(&tag, &rest),
        end_line(&tag, &out),
        "{tag}: restore"
    );
}

fn particle_lines(seed: u64, n: usize, flip_every: u64, lines: &mut Vec<String>) {
    let tag = format!("particle seed {seed} n {n}");
    let risks = risks(seed, n);
    let pcfg = particle_config(seed);
    let mut session: ParticleSession<_> =
        ParticleBackend::open(&risks, model(), config(), pcfg).unwrap();
    let lab = lab(truth(seed, &risks), flip_every);
    let mut restored = None;
    let mut round = 0;
    let out = loop {
        lines.push(format!(
            "{tag} round {round} marginals {}",
            float_digest(&session.marginals())
        ));
        if round == RESTORE_ROUND {
            let bytes = session.snapshot().to_bytes();
            lines.push(format!("{tag} snapshot {}", byte_digest(&bytes)));
            let snapshot = SessionSnapshot::from_bytes(&bytes).unwrap();
            restored =
                Some(ParticleBackend::restore(&snapshot, &risks, model(), config(), pcfg).unwrap());
        }
        match session.round((), &lab) {
            RoundStep::Progressed => round += 1,
            RoundStep::Finished(out) => break out,
        }
    };
    lines.push(end_line(&tag, &out));
    let cloud = cloud_line(&tag, &session);
    lines.push(cloud.clone());
    let mut resumed = restored.expect("cohort runs past the restore round");
    let rest = resumed.run((), &lab);
    assert_eq!(
        end_line(&tag, &rest),
        end_line(&tag, &out),
        "{tag}: restore"
    );
    assert_eq!(cloud_line(&tag, &resumed), cloud, "{tag}: restored cloud");
}

fn cloud_line(tag: &str, session: &ParticleSession<BinaryDilutionModel>) -> String {
    let snapshot = session.snapshot();
    let block = snapshot.approx.unwrap().particles.unwrap();
    format!(
        "{tag} cloud words {} log_weights {} rng {}",
        digest(block.words.iter().copied()),
        float_digest(&block.log_weights),
        digest(block.rng)
    )
}

fn current() -> String {
    let mut lines = Vec::new();
    for (seed, n, flip_every) in COHORTS {
        bp_lines(seed, n, flip_every, &mut lines);
        particle_lines(seed, n, flip_every, &mut lines);
    }
    lines.join("\n") + "\n"
}

#[test]
fn approximate_backends_keep_their_bits() {
    let now = current();
    for (i, (got, want)) in now.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of parent_approx.txt", i + 1);
    }
    assert_eq!(now.lines().count(), GOLDEN.lines().count(), "line count");
}

#[test]
#[ignore = "prints the current pins; never rewrite the golden to pass"]
fn print_current_pins() {
    print!("{}", current());
}
