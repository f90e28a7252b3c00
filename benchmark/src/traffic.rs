//! Seeded traffic and the client-side mirror of the service's batcher.
//!
//! `sbgt-sim` generates the arrivals — who comes when, from which lab, in
//! which risk class; the program under test sees only the specimens. Who
//! is infected is then dealt, not drawn: each class of a stream carries
//! exactly `round(risk × arrivals)` positives at seeded places. A stream's
//! prevalence is what moves `tests_per_specimen` most, and drawn, it would
//! move it by a few percent from seed to seed with no change in the
//! program. The stream is stored as one byte per specimen (class and
//! ground truth), so the harness's own memory stays far below the
//! service's and `peak_rss_mb` can still see the program.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sbgt_service::{CohortSpec, Specimen};
use sbgt_sim::traffic::{generate_arrivals, TrafficClass, TrafficConfig};

/// One risk class of one tenant in the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Class {
    pub tenant: u32,
    pub risk: f64,
    pub weight: f64,
}

/// A generated specimen stream: a pure function of `(classes, rate, n,
/// seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    classes: Vec<Class>,
    /// `class index << 1 | infected`, in arrival order.
    codes: Vec<u8>,
    /// Due time of each arrival in nanoseconds from the phase start;
    /// empty for closed-loop streams, which never read it.
    due_ns: Vec<u64>,
}

/// A distinct, well-mixed seed for stream `salt` of a run seeded `seed`.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    sbgt_net::ring::splitmix64(seed ^ sbgt_net::ring::splitmix64(salt.wrapping_add(0x0B1E_55ED)))
}

impl Traffic {
    /// A closed-loop stream: order and content matter, timing does not.
    pub fn closed(classes: &[Class], specimens: usize, seed: u64) -> Traffic {
        Traffic::generate(classes, None, specimens, seed)
    }

    /// An open-loop stream with Poisson due times at `rate` per second.
    pub fn paced(classes: &[Class], rate: f64, specimens: usize, seed: u64) -> Traffic {
        Traffic::generate(classes, Some(rate), specimens, seed)
    }

    fn generate(classes: &[Class], rate: Option<f64>, specimens: usize, seed: u64) -> Traffic {
        assert!(classes.len() <= 128, "class index must fit seven bits");
        let arrivals = generate_arrivals(&TrafficConfig {
            rate_per_sec: rate.unwrap_or(1.0),
            specimens,
            classes: classes
                .iter()
                .map(|c| TrafficClass {
                    weight: c.weight,
                    risk: c.risk,
                    tenant: c.tenant,
                })
                .collect(),
            seed,
        });
        let mut codes: Vec<u8> = arrivals
            .iter()
            .map(|a| {
                let class = classes
                    .iter()
                    .position(|c| c.tenant == a.tenant && c.risk.to_bits() == a.risk.to_bits())
                    .expect("every arrival carries one of the configured classes");
                (class as u8) << 1
            })
            .collect();
        // Deal each class its exact share of positives: a partial shuffle
        // of the class's arrivals picks who.
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x1F));
        for (class, spec) in classes.iter().enumerate() {
            let mut members: Vec<usize> = (0..codes.len())
                .filter(|&i| codes[i] >> 1 == class as u8)
                .collect();
            let positives = (spec.risk * members.len() as f64).round() as usize;
            for dealt in 0..positives.min(members.len()) {
                let pick = rng.random_range(dealt..members.len());
                members.swap(dealt, pick);
                codes[members[dealt]] |= 1;
            }
        }
        let due_ns = match rate {
            Some(_) => arrivals.iter().map(|a| a.at.as_nanos() as u64).collect(),
            None => Vec::new(),
        };
        Traffic {
            classes: classes.to_vec(),
            codes,
            due_ns,
        }
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Tenant and specimen of arrival `i`.
    pub fn get(&self, i: usize) -> (u32, Specimen) {
        let code = self.codes[i];
        let class = &self.classes[(code >> 1) as usize];
        (
            class.tenant,
            Specimen {
                risk: class.risk,
                infected: code & 1 == 1,
            },
        )
    }

    /// When arrival `i` of a paced stream is due, from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_nanos(self.due_ns[i])
    }

    /// Every bit the program or the pacing loop will see, for the
    /// same-seed-same-traffic check.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() * 13);
        for i in 0..self.len() {
            let (tenant, specimen) = self.get(i);
            out.extend_from_slice(&tenant.to_le_bytes());
            out.extend_from_slice(&specimen.risk.to_bits().to_le_bytes());
            out.push(u8::from(specimen.infected));
            if let Some(due) = self.due_ns.get(i) {
                out.extend_from_slice(&due.to_le_bytes());
            }
        }
        out
    }
}

/// What the service's batcher (and the fabric router, which applies the
/// same rule client-side) will do with the specimens it accepts: one open
/// batch per tenant, sealed when it reaches `batch_size`, ids handed out
/// in sealing order. Mirroring it is how the harness knows which
/// specimens a report with a given cohort id covers.
pub struct BatcherMirror {
    batch_size: usize,
    base_seed: u64,
    next_id: u64,
    open: BTreeMap<u32, Vec<Specimen>>,
}

impl BatcherMirror {
    pub fn new(batch_size: usize, base_seed: u64) -> Self {
        BatcherMirror {
            batch_size,
            base_seed,
            next_id: 0,
            open: BTreeMap::new(),
        }
    }

    /// Whether the next specimen accepted for `tenant` seals a cohort.
    pub fn seals_next(&self, tenant: u32) -> bool {
        self.open.get(&tenant).map_or(0, Vec::len) + 1 >= self.batch_size
    }

    /// Account one accepted specimen; the sealed cohort, if it filled one.
    pub fn push(&mut self, tenant: u32, specimen: Specimen) -> Option<CohortSpec> {
        let batch = self.open.entry(tenant).or_default();
        batch.push(specimen);
        if batch.len() < self.batch_size {
            return None;
        }
        let batch = self.open.remove(&tenant).expect("batch just filled");
        Some(self.seal(tenant, &batch))
    }

    /// Seal every partial batch, lowest tenant first: what closing the
    /// service's ingress (or `FabricRouter::flush_all`) does.
    pub fn flush(&mut self) -> Vec<CohortSpec> {
        std::mem::take(&mut self.open)
            .into_iter()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(tenant, batch)| self.seal(tenant, &batch))
            .collect()
    }

    fn seal(&mut self, tenant: u32, batch: &[Specimen]) -> CohortSpec {
        let id = self.next_id;
        self.next_id += 1;
        CohortSpec::from_specimens(id, self.base_seed, batch).with_tenant(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_service::batch_specimens;

    fn mix() -> Vec<Class> {
        vec![
            Class {
                tenant: 0,
                risk: 0.02,
                weight: 0.45,
            },
            Class {
                tenant: 0,
                risk: 0.12,
                weight: 0.05,
            },
            Class {
                tenant: 1,
                risk: 0.02,
                weight: 0.45,
            },
            Class {
                tenant: 1,
                risk: 0.12,
                weight: 0.05,
            },
        ]
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = Traffic::paced(&mix(), 20_000.0, 4000, derive_seed(7, 1));
        let b = Traffic::paced(&mix(), 20_000.0, 4000, derive_seed(7, 1));
        let c = Traffic::paced(&mix(), 20_000.0, 4000, derive_seed(8, 1));
        let d = Traffic::paced(&mix(), 20_000.0, 4000, derive_seed(7, 2));
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.to_bytes(), c.to_bytes());
        assert_ne!(a.to_bytes(), d.to_bytes());
        assert_eq!(a.len(), 4000);
        // Closed streams carry no due times but the same specimens.
        let closed = Traffic::closed(&mix(), 4000, derive_seed(7, 1));
        assert!(closed.to_bytes().len() < a.to_bytes().len());
        // Due times ascend and both tenants and both truths occur.
        assert!((1..a.len()).all(|i| a.due(i - 1) <= a.due(i)));
        let tenants: Vec<u32> = (0..a.len()).map(|i| a.get(i).0).collect();
        assert!(tenants.contains(&0) && tenants.contains(&1));
        assert!((0..a.len()).any(|i| a.get(i).1.infected));
    }

    #[test]
    fn each_class_carries_its_exact_share_of_positives() {
        for seed in [1, 2, 3] {
            let t = Traffic::closed(&mix(), 10_000, seed);
            for class in mix() {
                let members: Vec<Specimen> = (0..t.len())
                    .map(|i| t.get(i))
                    .filter(|(tenant, s)| *tenant == class.tenant && s.risk == class.risk)
                    .map(|(_, s)| s)
                    .collect();
                let positives = members.iter().filter(|s| s.infected).count();
                assert_eq!(
                    positives,
                    (class.risk * members.len() as f64).round() as usize
                );
            }
        }
    }

    #[test]
    fn mirror_matches_the_services_own_batching_rule() {
        // One tenant: the mirror must form exactly `batch_specimens`.
        let traffic = Traffic::closed(&mix()[..2], 100, 3);
        let specimens: Vec<Specimen> = (0..traffic.len()).map(|i| traffic.get(i).1).collect();
        let mut mirror = BatcherMirror::new(12, 99);
        let mut formed = Vec::new();
        for s in &specimens {
            formed.extend(mirror.push(0, *s));
        }
        formed.extend(mirror.flush());
        assert_eq!(formed, batch_specimens(&specimens, 12, 99));
        assert_eq!(formed.last().unwrap().n_subjects(), 100 % 12);
    }

    #[test]
    fn mirror_keeps_tenants_apart_and_numbers_by_sealing_order() {
        let mut mirror = BatcherMirror::new(2, 5);
        let s = |infected| Specimen {
            risk: 0.1,
            infected,
        };
        assert!(!mirror.seals_next(0));
        assert_eq!(mirror.push(0, s(false)), None);
        assert_eq!(mirror.push(1, s(true)), None);
        assert!(mirror.seals_next(1));
        let first = mirror.push(1, s(false)).expect("tenant 1 fills first");
        assert_eq!((first.id, first.tenant, first.n_subjects()), (0, 1, 2));
        assert!(first.truth.contains(0) && !first.truth.contains(1));
        let second = mirror.push(0, s(true)).expect("tenant 0 fills second");
        assert_eq!((second.id, second.tenant), (1, 0));
        assert_eq!(mirror.push(1, s(true)), None);
        let tail = mirror.flush();
        assert_eq!(tail.len(), 1);
        assert_eq!(
            (tail[0].id, tail[0].tenant, tail[0].n_subjects()),
            (2, 1, 1)
        );
        assert!(mirror.flush().is_empty());
    }
}
