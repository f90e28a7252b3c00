//! Memoized BHA decision plans: outcome-indexed selection trees shared
//! across cohorts with the same quantized configuration.
//!
//! At fleet scale most cohorts run the *same* session configuration — same
//! size, same assay model, same stage width, risks that differ only in the
//! third decimal — yet every cohort re-runs the full look-ahead selection
//! search each round. Selection is a pure function of the posterior, and
//! the posterior is a pure function of the prior and the outcome history,
//! so for a fixed configuration the whole adaptive policy is one *decision
//! tree*: at each node the pools to test, with one child per joint outcome
//! of the stage. This module memoizes that tree.
//!
//! * [`PlanKey`] captures **every** input the selection rules read — cohort
//!   size, the exact post-quantization risk bits, a fingerprint of the
//!   response model's likelihood tables, classification thresholds, stage
//!   width, pool-size cap, the sparse-switch policy, and an execution
//!   [`PlanLineage`] (in-memory dense / engine-sharded / sparse differ in
//!   floating-point summation order, which can flip a near-tied argmin). Key equality therefore implies bit-identical live
//!   selections, which is what makes replaying a cached plan sound.
//! * [`RiskQuantizer`] snaps per-subject risks onto bucket representatives
//!   *before* the prior is built, so nearby cohorts collapse onto one key
//!   — and the key records the post-quantization bits, never the originals.
//! * [`PlanTree`] is the arena-allocated decision tree. A session replays
//!   it by walking outcome-indexed branches from the root using its own
//!   observation history; falling off the tree transparently falls back to
//!   live selection and the miss extends the tree in place, bounded by a
//!   node budget. Every hit and insert stamps its whole root path, so a
//!   node's stamp is its subtree's newest touch and cold subtrees go
//!   first: an insert past the budget evicts the least-recently-stamped
//!   leaf, found by one scan of a per-slot column, onto a free list whose
//!   slots are reused in place. Nothing is re-walked, compacted or
//!   renumbered.
//! * [`PlanCache`] is the process-wide map from key to tree with atomic
//!   hit/miss/extend/evict counters, and the `SBGTPLAN` byte codec
//!   ([`PlanCache::export`] / [`PlanCache::import`]) so a warmed cache
//!   survives checkpoint/restore.
//!
//! Only *selection* is memoized. Posterior updates, marginals, and
//! classification still run every round — a cache hit skips the
//! `O(2^N · 2^j)` look-ahead search, nothing else.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sbgt_bayes::ClassificationRule;
use sbgt_lattice::bytes::{ByteError, Reader, Writer};
use sbgt_lattice::State;
use sbgt_response::BinaryOutcomeModel;

use crate::halving::Selection;

/// Stages wider than this are never cached: each node stores `2^width`
/// child slots, so the arena would blow up long before the budget bites.
pub const PLAN_MAX_STAGE_POOLS: usize = 12;

const MAGIC: &[u8; 8] = b"SBGTPLAN";
/// Versions 2 and 3 have the layout of version 1, and every version still
/// decodes; [`PlanCache::import`] drops the trees an older arithmetic
/// chose, because replaying them could serve pools a live selection would
/// not pick. Version 2: a version-1 blob's [`PlanLineage::Dense`] trees
/// wider than one pool per stage were chosen by the look-ahead over the
/// whole lattice, which the in-memory path no longer runs (it projects
/// onto the undecided subjects first). Version 3: the exact sessions sum
/// massless subjects out of the lattice, which moves the sums of every
/// sharded lattice and of every in-memory lattice of more than one 2^16
/// block, so a version-1 or version-2 tree under
/// [`PlanLineage::Sharded`], or under `Dense` with `n ≥ 17`, is dropped.
const VERSION: u32 = 3;

/// Whether a tree of a version-`version` blob was chosen by an arithmetic
/// this version no longer runs (see [`VERSION`]).
fn retired(version: u32, key: &PlanKey) -> bool {
    let dense = key.lineage == PlanLineage::Dense;
    (version == 1 && dense && key.stage_width > 1)
        || (version < 3
            && (matches!(key.lineage, PlanLineage::Sharded { .. }) || (dense && key.n >= 17)))
}

// ---------------------------------------------------------------------------
// Key
// ---------------------------------------------------------------------------

/// Which arithmetic path produced (and will replay) the plan.
///
/// The in-memory dense, engine-sharded and sparse paths select the same
/// pools in exact arithmetic but sum in different orders, so a near-tied
/// halving argmin can legitimately differ in the last ulp. Folding the path
/// into the key keeps "key equal ⇒ selections bit-equal" true without any
/// cross-path tolerance argument. The in-memory path is one lineage: its
/// blocks fold in one order whether they run inline or on rayon.
///
/// Tag 1 belonged to the retired rayon-chunked lineage, whose sums depended
/// on its chunk length and the host's thread count. [`PlanCache::import`]
/// still decodes it, and drops its tree. It drops the trees of an older
/// version whose arithmetic has moved too (see `VERSION`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanLineage {
    /// Dense in-memory session, serial or parallel.
    Dense,
    /// Engine-sharded session over this many posterior partitions.
    Sharded {
        /// Partition count (summation-order relevant).
        parts: u32,
    },
    /// Pruned sparse session with this prune epsilon (bit pattern).
    Sparse {
        /// `f64::to_bits` of the prune epsilon.
        epsilon_bits: u64,
    },
    /// Loopy-BP approximate session (`sbgt-approx`). Approx sessions never
    /// attach cached plans — their pools exceed the one-word `State` a
    /// `PlanTree` stores — but the discriminant exists so a shared cache
    /// can never serve a dense-derived tree to a BP session or vice versa.
    Bp {
        /// Message-passing iteration cap of the session.
        max_iters: u32,
        /// `f64::to_bits` of the message damping factor.
        damping_bits: u64,
    },
    /// SMC particle approximate session (`sbgt-approx`); same rationale as
    /// [`PlanLineage::Bp`].
    Particle {
        /// Particle count of the session.
        particles: u32,
        /// `f64::to_bits` of the ESS resampling fraction.
        ess_bits: u64,
    },
}

impl PlanLineage {
    fn tag(&self) -> u8 {
        match self {
            PlanLineage::Dense => 0,
            PlanLineage::Sharded { .. } => 2,
            PlanLineage::Sparse { .. } => 3,
            PlanLineage::Bp { .. } => 4,
            PlanLineage::Particle { .. } => 5,
        }
    }
}

/// The quantized configuration a plan is keyed by.
///
/// Constructed via [`PlanKey::new`] from the post-quantization risks and
/// every selection-relevant session parameter. Two sessions with equal keys
/// produce bit-for-bit identical live selections along any outcome path —
/// the soundness property pinned by the collision property test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    n: u32,
    risk_bits: Vec<u64>,
    model_fp: u64,
    pos_threshold_bits: u64,
    neg_threshold_bits: u64,
    stage_width: u32,
    max_pool_size: u32,
    /// `(max_support_fraction, prune_epsilon)` bit patterns of the
    /// dense→sparse switch policy, when one is configured.
    sparse_switch_bits: Option<(u64, u64)>,
    lineage: PlanLineage,
}

impl PlanKey {
    /// Build a key from the **post-quantization** risks and the session's
    /// selection-relevant configuration. `sparse_switch` is the
    /// `(max_support_fraction, prune_epsilon)` pair of the adaptive switch
    /// policy, if any.
    pub fn new<M: BinaryOutcomeModel>(
        risks: &[f64],
        model: &M,
        rule: &ClassificationRule,
        stage_width: usize,
        max_pool_size: usize,
        sparse_switch: Option<(f64, f64)>,
        lineage: PlanLineage,
    ) -> Self {
        PlanKey {
            n: risks.len() as u32,
            risk_bits: risks.iter().map(|r| r.to_bits()).collect(),
            model_fp: model_fingerprint(model, max_pool_size.min(risks.len()).max(1)),
            pos_threshold_bits: rule.pos_threshold.to_bits(),
            neg_threshold_bits: rule.neg_threshold.to_bits(),
            stage_width: stage_width as u32,
            max_pool_size: max_pool_size as u32,
            sparse_switch_bits: sparse_switch.map(|(f, e)| (f.to_bits(), e.to_bits())),
            lineage,
        }
    }

    /// Cohort size the key covers.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Name the first field on which two keys differ, or `None` if they are
    /// equal. Property tests use this to fail *loudly* when a supposed
    /// collision is not one — the counterexample names the culprit instead
    /// of printing two opaque hashes.
    pub fn diff(&self, other: &PlanKey) -> Option<&'static str> {
        if self.n != other.n {
            return Some("n");
        }
        if self.risk_bits != other.risk_bits {
            return Some("risk_bits");
        }
        if self.model_fp != other.model_fp {
            return Some("model_fp");
        }
        if self.pos_threshold_bits != other.pos_threshold_bits {
            return Some("pos_threshold_bits");
        }
        if self.neg_threshold_bits != other.neg_threshold_bits {
            return Some("neg_threshold_bits");
        }
        if self.stage_width != other.stage_width {
            return Some("stage_width");
        }
        if self.max_pool_size != other.max_pool_size {
            return Some("max_pool_size");
        }
        if self.sparse_switch_bits != other.sparse_switch_bits {
            return Some("sparse_switch_bits");
        }
        if self.lineage != other.lineage {
            return Some("lineage");
        }
        None
    }
}

/// FNV-1a over the bit patterns of every likelihood table the selection
/// rules can read: both outcomes, every pool size up to the cap. Two models
/// with the same fingerprint are (with overwhelming probability) the same
/// function on every input the plan can ever evaluate.
fn model_fingerprint<M: BinaryOutcomeModel>(model: &M, max_pool_size: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |h: &mut u64, x: u64| {
        // Least-significant byte first.
        for shift in (0..64).step_by(8) {
            *h ^= (x >> shift) & 0xFF;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for size in 1..=max_pool_size {
        for outcome in [false, true] {
            for v in model.likelihood_table(outcome, size as u32) {
                mix(&mut h, v.to_bits());
            }
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Quantization
// ---------------------------------------------------------------------------

/// Snaps per-subject risks onto bucket representatives so that cohorts with
/// nearby risk profiles share one [`PlanKey`].
///
/// The unit interval is split into `buckets` equal cells and every risk is
/// replaced by its cell midpoint `(i + ½) / buckets` — always strictly
/// inside `(0, 1)`, so a valid risk stays a valid risk. `buckets == 0`
/// disables quantization (identity). Quantization must run **before** the
/// prior is built: the key records the post-quantization bits, so key
/// equality implies prior equality by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RiskQuantizer {
    buckets: u32,
}

impl RiskQuantizer {
    /// A quantizer with the given resolution; `0` disables quantization.
    pub fn new(buckets: u32) -> Self {
        RiskQuantizer { buckets }
    }

    /// Whether this quantizer changes anything.
    pub fn is_enabled(&self) -> bool {
        self.buckets > 0
    }

    /// Snap one risk to its bucket representative.
    pub fn snap(&self, risk: f64) -> f64 {
        if self.buckets == 0 || !risk.is_finite() {
            return risk;
        }
        let b = f64::from(self.buckets);
        let cell = (risk * b).floor().clamp(0.0, b - 1.0);
        (cell + 0.5) / b
    }

    /// Snap a whole risk vector.
    pub fn snap_all(&self, risks: &[f64]) -> Vec<f64> {
        risks.iter().map(|&r| self.snap(r)).collect()
    }
}

// ---------------------------------------------------------------------------
// Tree
// ---------------------------------------------------------------------------

/// A vacant child slot, the empty tree's root, or no parent (the root
/// and free slots).
const NIL: u32 = u32::MAX;

/// One memoized select step: the pools chosen at this point of the outcome
/// history, with one child slot per joint outcome of the stage (bit `i` of
/// the child index = outcome of pool `i`). A slot on the free list has no
/// selections.
#[derive(Debug, Default)]
struct PlanNode {
    selections: Vec<Selection>,
    /// Arena index per joint outcome, [`NIL`] when vacant.
    children: Vec<u32>,
    /// Arena index of the parent, [`NIL`] at the root.
    parent: u32,
    /// Which of the parent's child slots holds this node.
    mask: u32,
    /// Occupied child slots.
    child_count: u32,
    /// Clock of the newest lookup or insert at or below this node: every
    /// touch stamps the whole root path, so a node is never older than
    /// any of its children and the oldest node is always a leaf.
    touch: u64,
}

/// Where a history walk landed.
enum Walk {
    /// History ends exactly at this node: its selections apply now.
    Hit(usize),
    /// History ends exactly at an empty child slot (or the empty root):
    /// the live selections computed now belong there.
    Vacant { parent: Option<usize>, mask: usize },
    /// The history left the tree mid-branch (pool mismatch, partial stage,
    /// or a path pruned by eviction): fall back to live selection without
    /// extending — there is nowhere sound to attach the node.
    Detached,
}

/// The memoized decision tree for one [`PlanKey`].
///
/// Sessions hold no cursor into the tree: every lookup re-walks from the
/// root using the session's flat `(pool, outcome)` history. The walk is
/// `O(stages)` — trivial next to one posterior update — and makes eviction
/// and slot reuse invisible to sessions (a pruned path simply walks
/// `Detached` and falls back to live selection).
///
/// Nodes live in an arena whose evicted slots go on a free list and are
/// reused in place: no index ever moves. Over budget, an insert drops the
/// least-recently-touched leaf, found by one scan of `leaf_touch`.
#[derive(Debug)]
pub struct PlanTree {
    nodes: Vec<PlanNode>,
    /// Per arena slot: the touch of a live leaf, `u64::MAX` for interior
    /// and free slots — the eviction scan's only input.
    leaf_touch: Vec<u64>,
    free: Vec<u32>,
    root: u32,
    clock: u64,
    node_budget: usize,
}

impl PlanTree {
    fn new(node_budget: usize) -> Self {
        PlanTree {
            nodes: Vec::new(),
            leaf_touch: Vec::new(),
            free: Vec::new(),
            root: NIL,
            clock: 0,
            node_budget,
        }
    }

    /// Number of memoized select steps.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the tree holds no plan yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn walk(&self, history: &[(State, bool)]) -> Walk {
        if self.root == NIL {
            return if history.is_empty() {
                Walk::Vacant {
                    parent: None,
                    mask: 0,
                }
            } else {
                Walk::Detached
            };
        }
        let mut cur = self.root as usize;
        let mut at = 0usize;
        loop {
            let node = &self.nodes[cur];
            let k = node.selections.len();
            if at == history.len() {
                return Walk::Hit(cur);
            }
            if at + k > history.len() {
                // History ends mid-stage: a config that selects these pools
                // would have observed the whole stage before selecting again.
                return Walk::Detached;
            }
            let mut mask = 0usize;
            for (i, sel) in node.selections.iter().enumerate() {
                let (pool, outcome) = history[at + i];
                if pool != sel.pool {
                    return Walk::Detached;
                }
                mask |= usize::from(outcome) << i;
            }
            at += k;
            match node.children[mask] {
                NIL if at == history.len() => {
                    return Walk::Vacant {
                        parent: Some(cur),
                        mask,
                    }
                }
                NIL => return Walk::Detached,
                child => cur = child as usize,
            }
        }
    }

    /// Replay the memoized selections for this history, if present.
    pub fn lookup(&mut self, history: &[(State, bool)]) -> Option<Vec<Selection>> {
        match self.walk(history) {
            Walk::Hit(idx) => {
                self.touch_path(idx);
                Some(self.nodes[idx].selections.clone())
            }
            _ => None,
        }
    }

    /// Record the live selections computed at this history. Returns the
    /// number of nodes evicted to stay inside the budget, or `None` when
    /// nothing was inserted (already present, detached, uncacheable width).
    pub fn extend(&mut self, history: &[(State, bool)], selections: &[Selection]) -> Option<u64> {
        if selections.is_empty() || selections.len() > PLAN_MAX_STAGE_POOLS {
            return None;
        }
        let (parent, mask) = match self.walk(history) {
            Walk::Vacant { parent, mask } => (parent, mask),
            _ => return None,
        };
        let idx = self.alloc(selections, parent.map_or(NIL, |p| p as u32), mask as u32);
        match parent {
            Some(p) => self.link(p, mask, idx),
            None => self.root = idx as u32,
        }
        self.touch_path(idx);
        Some(self.evict_to_budget())
    }

    /// Take a slot off the free list (or grow the arena) and fill it with a
    /// childless node; its buffers are reused when the slot is.
    fn alloc(&mut self, selections: &[Selection], parent: u32, mask: u32) -> usize {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.nodes.push(PlanNode::default());
                self.leaf_touch.push(u64::MAX);
                self.nodes.len() - 1
            }
        };
        let node = &mut self.nodes[idx];
        node.selections.extend_from_slice(selections);
        node.children.clear();
        node.children.resize(1 << selections.len(), NIL);
        node.parent = parent;
        node.mask = mask;
        node.child_count = 0;
        node.touch = 0;
        self.refresh_leaf_touch(idx);
        idx
    }

    /// Occupy the parent's vacant child slot `mask` with `child`.
    fn link(&mut self, parent: usize, mask: usize, child: usize) {
        let node = &mut self.nodes[parent];
        node.children[mask] = child as u32;
        node.child_count += 1;
        self.refresh_leaf_touch(parent);
    }

    fn refresh_leaf_touch(&mut self, idx: usize) {
        let node = &self.nodes[idx];
        self.leaf_touch[idx] = if node.child_count == 0 {
            node.touch
        } else {
            u64::MAX
        };
    }

    /// Advance the clock and stamp this node and every ancestor with it.
    fn touch_path(&mut self, idx: usize) {
        self.clock += 1;
        let mut cur = idx as u32;
        while cur != NIL {
            let i = cur as usize;
            self.nodes[i].touch = self.clock;
            self.refresh_leaf_touch(i);
            cur = self.nodes[i].parent;
        }
    }

    /// Drop least-recently-touched leaves until the tree fits the budget
    /// again. A node's touch covers its whole subtree, so this evicts the
    /// coldest subtrees first, one leaf at a time; the leaf stamped by this
    /// insert (the clock's current value) is skipped, and its ancestors are
    /// interior, so the insert path survives even a budget smaller than
    /// itself. Returns the number of nodes dropped.
    fn evict_to_budget(&mut self) -> u64 {
        let mut dropped = 0;
        while self.len() > self.node_budget {
            let mut victim = None;
            let mut coldest = self.clock;
            for (idx, &touch) in self.leaf_touch.iter().enumerate() {
                if touch < coldest {
                    coldest = touch;
                    victim = Some(idx);
                }
            }
            let Some(victim) = victim else {
                // Only the insert path remains; keep it rather than thrash.
                break;
            };
            self.release(victim);
            dropped += 1;
        }
        dropped
    }

    /// Unlink a leaf from its parent and put its slot on the free list. A
    /// parent left childless becomes a leaf carrying its own touch.
    fn release(&mut self, leaf: usize) {
        let node = &mut self.nodes[leaf];
        let (parent, mask) = (node.parent as usize, node.mask as usize);
        node.selections.clear();
        node.parent = NIL;
        self.leaf_touch[leaf] = u64::MAX;
        self.free.push(leaf as u32);
        let node = &mut self.nodes[parent];
        node.children[mask] = NIL;
        node.child_count -= 1;
        self.refresh_leaf_touch(parent);
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// Monotonic counters of one [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Select steps replayed from a memoized tree.
    pub hits: u64,
    /// Select steps that fell off the tree and ran live.
    pub misses: u64,
    /// Live selections that extended a tree in place.
    pub extends: u64,
    /// Nodes dropped by budget eviction.
    pub evictions: u64,
}

/// Process-wide store of memoized plans, one tree per [`PlanKey`].
///
/// Shared as `Arc<PlanCache>` between every session of a service (and, for
/// warm/cold benchmarking, between service instances). Counters are atomic
/// and monotonic; consumers that want per-window numbers snapshot
/// [`PlanCache::stats`] and diff.
#[derive(Debug)]
pub struct PlanCache {
    node_budget: usize,
    trees: Mutex<HashMap<PlanKey, Arc<Mutex<PlanTree>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    extends: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache whose trees each hold at most `node_budget` memoized select
    /// steps (`≥ 1`; the budget is per tree, not per cache).
    pub fn new(node_budget: usize) -> Arc<Self> {
        assert!(node_budget >= 1, "plan cache node budget must be >= 1");
        Arc::new(PlanCache {
            node_budget,
            trees: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            extends: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Per-tree node budget.
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// The handle a session attaches: the key's tree, created empty on
    /// first use.
    pub fn handle(self: &Arc<Self>, key: PlanKey) -> PlanHandle {
        let tree = {
            let mut trees = self.trees.lock().unwrap();
            Arc::clone(
                trees
                    .entry(key)
                    .or_insert_with(|| Arc::new(Mutex::new(PlanTree::new(self.node_budget)))),
            )
        };
        PlanHandle {
            cache: Arc::clone(self),
            tree,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            extends: self.extends.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct keys with a tree.
    pub fn tree_count(&self) -> usize {
        self.trees.lock().unwrap().len()
    }

    /// Total memoized select steps across all trees.
    pub fn total_nodes(&self) -> usize {
        let trees = self.trees.lock().unwrap();
        trees.values().map(|t| t.lock().unwrap().len()).sum()
    }

    /// Serialize every tree to the versioned `SBGTPLAN` byte format.
    pub fn export(&self) -> Vec<u8> {
        let trees = self.trees.lock().unwrap();
        // Deterministic order: sort by the serialized key bytes.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = trees
            .iter()
            .map(|(key, tree)| {
                let mut key_bytes = Writer::new();
                write_key(&mut key_bytes, key);
                let mut tree_bytes = Writer::new();
                write_tree(&mut tree_bytes, &tree.lock().unwrap());
                (key_bytes.into_bytes(), tree_bytes.into_bytes())
            })
            .collect();
        entries.sort();
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u32(VERSION);
        w.u32(entries.len() as u32);
        for (key_bytes, tree_bytes) in entries {
            w.raw(&key_bytes);
            w.raw(&tree_bytes);
        }
        w.into_bytes()
    }

    /// Merge an `SBGTPLAN` blob into this cache. Keys already present keep
    /// their live (likely fresher) tree; new keys adopt the imported one.
    /// Every structural violation is a typed [`PlanCodecError::Corrupt`] —
    /// a tampered blob must never panic. Trees a retired arithmetic built
    /// (the tag-1 lineage; the trees of an older version that [`VERSION`]
    /// names) decode and are dropped. Returns the number of trees adopted.
    pub fn import(&self, bytes: &[u8]) -> Result<usize, PlanCodecError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(PlanCodecError::Corrupt("bad plan magic".into()));
        }
        let version = r.u32()?;
        if !(1..=VERSION).contains(&version) {
            return Err(PlanCodecError::Corrupt(format!(
                "unsupported plan version {version}"
            )));
        }
        let n_trees = r.count32(MIN_KEY_BYTES + 4, "tree")?;
        let parsed = (0..n_trees)
            .map(|_| Ok((read_key(&mut r)?, read_tree(&mut r, self.node_budget)?)))
            .collect::<Result<Vec<_>, PlanCodecError>>()?;
        r.finish()?;
        let mut adopted = 0usize;
        let mut trees = self.trees.lock().unwrap();
        for (key, tree) in parsed {
            let Some(key) = key else { continue };
            if retired(version, &key) {
                continue;
            }
            trees.entry(key).or_insert_with(|| {
                adopted += 1;
                Arc::new(Mutex::new(tree))
            });
        }
        Ok(adopted)
    }
}

/// A session's view of one tree in a [`PlanCache`]: lookups and extensions
/// go to the tree, counters to the owning cache.
#[derive(Debug, Clone)]
pub struct PlanHandle {
    cache: Arc<PlanCache>,
    tree: Arc<Mutex<PlanTree>>,
}

impl PlanHandle {
    /// Replay the memoized selections for this observation history, if the
    /// tree covers it.
    pub fn lookup(&self, history: &[(State, bool)]) -> Option<Vec<Selection>> {
        let got = self.tree.lock().unwrap().lookup(history);
        match &got {
            Some(_) => self.cache.hits.fetch_add(1, Ordering::Relaxed),
            None => self.cache.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Record live selections at this history; a no-op when the history is
    /// detached from the tree or the stage is uncacheably wide. The node is
    /// fully built before the tree lock is taken, so a concurrent reader
    /// (or a round killed mid-extension) never observes a torn node.
    pub fn extend(&self, history: &[(State, bool)], selections: &[Selection]) {
        let evicted = self.tree.lock().unwrap().extend(history, selections);
        if let Some(evicted) = evicted {
            self.cache.extends.fetch_add(1, Ordering::Relaxed);
            if evicted > 0 {
                self.cache.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Memoized select steps currently in the tree (tests and telemetry).
    pub fn tree_len(&self) -> usize {
        self.tree.lock().unwrap().len()
    }
}

// ---------------------------------------------------------------------------
// SBGTPLAN codec
// ---------------------------------------------------------------------------

/// Typed error for a malformed `SBGTPLAN` blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCodecError {
    /// The blob is structurally invalid; the message says where.
    Corrupt(String),
}

impl std::fmt::Display for PlanCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanCodecError::Corrupt(msg) => write!(f, "corrupt SBGTPLAN blob: {msg}"),
        }
    }
}

impl std::error::Error for PlanCodecError {}

impl From<ByteError> for PlanCodecError {
    fn from(e: ByteError) -> Self {
        PlanCodecError::Corrupt(e.to_string())
    }
}

/// Smallest encoded key: no risks, no sparse switch, the `Dense`
/// lineage (`n`, risk count, fingerprint, two thresholds, width, pool cap,
/// switch flag, lineage tag).
const MIN_KEY_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 4 + 4 + 1 + 1;

/// Smallest encoded node: the width byte, one selection, two child slots.
const MIN_NODE_BYTES: usize = 1 + 24 + 2 * 4;

fn write_key(w: &mut Writer, key: &PlanKey) {
    w.u32(key.n);
    w.u32(key.risk_bits.len() as u32);
    w.u64s(&key.risk_bits);
    w.u64(key.model_fp);
    w.u64(key.pos_threshold_bits);
    w.u64(key.neg_threshold_bits);
    w.u32(key.stage_width);
    w.u32(key.max_pool_size);
    match key.sparse_switch_bits {
        None => w.u8(0),
        Some((f, e)) => {
            w.u8(1);
            w.u64(f);
            w.u64(e);
        }
    }
    w.u8(key.lineage.tag());
    match key.lineage {
        PlanLineage::Dense => {}
        PlanLineage::Sharded { parts } => w.u32(parts),
        PlanLineage::Sparse { epsilon_bits } => w.u64(epsilon_bits),
        PlanLineage::Bp {
            max_iters,
            damping_bits,
        } => {
            w.u32(max_iters);
            w.u64(damping_bits);
        }
        PlanLineage::Particle {
            particles,
            ess_bits,
        } => {
            w.u32(particles);
            w.u64(ess_bits);
        }
    }
}

/// A key, or `None` for one under the retired tag 1: its two `u64` fields
/// are consumed and the tree that follows is never adopted.
fn read_key(r: &mut Reader<'_>) -> Result<Option<PlanKey>, PlanCodecError> {
    let n = r.u32()?;
    let n_risks = r.count32(8, "risk")?;
    let risk_bits = r.u64s(n_risks)?;
    let model_fp = r.u64()?;
    let pos_threshold_bits = r.u64()?;
    let neg_threshold_bits = r.u64()?;
    let stage_width = r.u32()?;
    let max_pool_size = r.u32()?;
    let sparse_switch_bits = match r.u8()? {
        0 => None,
        1 => Some((r.u64()?, r.u64()?)),
        other => {
            return Err(PlanCodecError::Corrupt(format!(
                "bad sparse-switch flag {other}"
            )))
        }
    };
    let lineage = match r.u8()? {
        0 => PlanLineage::Dense,
        1 => {
            r.u64()?;
            r.u64()?;
            return Ok(None);
        }
        2 => PlanLineage::Sharded { parts: r.u32()? },
        3 => PlanLineage::Sparse {
            epsilon_bits: r.u64()?,
        },
        4 => PlanLineage::Bp {
            max_iters: r.u32()?,
            damping_bits: r.u64()?,
        },
        5 => PlanLineage::Particle {
            particles: r.u32()?,
            ess_bits: r.u64()?,
        },
        other => {
            return Err(PlanCodecError::Corrupt(format!(
                "unknown lineage tag {other}"
            )))
        }
    };
    Ok(Some(PlanKey {
        n,
        risk_bits,
        model_fp,
        pos_threshold_bits,
        neg_threshold_bits,
        stage_width,
        max_pool_size,
        sparse_switch_bits,
        lineage,
    }))
}

/// Nodes are exported in BFS order from the root (root = index 0), each as
/// its selection list followed by `2^width` child indices (`u32::MAX` =
/// none). Touch clocks are deliberately not serialized: an imported tree
/// starts cold and re-earns its LRU standing.
fn write_tree(w: &mut Writer, tree: &PlanTree) {
    let mut bfs: Vec<usize> = Vec::with_capacity(tree.len());
    let mut remap: Vec<u32> = vec![NIL; tree.nodes.len()];
    if tree.root != NIL {
        bfs.push(tree.root as usize);
        remap[tree.root as usize] = 0;
        let mut head = 0usize;
        while head < bfs.len() {
            let i = bfs[head];
            head += 1;
            for &child in tree.nodes[i].children.iter().filter(|&&c| c != NIL) {
                remap[child as usize] = bfs.len() as u32;
                bfs.push(child as usize);
            }
        }
    }
    w.u32(bfs.len() as u32);
    for &i in &bfs {
        let node = &tree.nodes[i];
        w.u8(node.selections.len() as u8);
        for sel in &node.selections {
            w.u64(sel.pool.bits());
            w.f64(sel.negative_mass);
            w.f64(sel.distance);
        }
        for &slot in &node.children {
            w.u32(if slot == NIL {
                NIL
            } else {
                remap[slot as usize]
            });
        }
    }
}

/// Every child index must follow its parent's, as breadth-first export
/// writes them: with each non-root node linked exactly once, that makes
/// every node reachable from the root.
fn read_tree(r: &mut Reader<'_>, node_budget: usize) -> Result<PlanTree, PlanCodecError> {
    let n_nodes = r.count32(MIN_NODE_BYTES, "node")?;
    let mut tree = PlanTree::new(node_budget);
    // `(parent, slot)` of every node linked so far; `NIL` = not yet.
    let mut linked_from = vec![(NIL, 0u32); n_nodes];
    for idx in 0..n_nodes {
        let width = r.u8()? as usize;
        if width == 0 || width > PLAN_MAX_STAGE_POOLS {
            return Err(PlanCodecError::Corrupt(format!(
                "node {idx} has invalid stage width {width}"
            )));
        }
        let selections = (0..width)
            .map(|_| {
                Ok(Selection {
                    pool: State(r.u64()?),
                    negative_mass: r.f64()?,
                    distance: r.f64()?,
                })
            })
            .collect::<Result<Vec<_>, ByteError>>()?;
        let slots = r.fits(1 << width, 4, "child slot")?;
        let (parent, mask) = linked_from[idx];
        tree.alloc(&selections, parent, mask);
        for slot in 0..slots {
            let child = r.u32()?;
            if child == NIL {
                continue;
            }
            let child = child as usize;
            if child >= n_nodes {
                return Err(PlanCodecError::Corrupt(format!(
                    "node {idx} links child {child} beyond {n_nodes} nodes"
                )));
            }
            if child == 0 {
                return Err(PlanCodecError::Corrupt(format!(
                    "node {idx} links the root as a child"
                )));
            }
            if child <= idx {
                return Err(PlanCodecError::Corrupt(format!(
                    "node {idx} links child {child} out of breadth-first order"
                )));
            }
            if linked_from[child].0 != NIL {
                return Err(PlanCodecError::Corrupt(format!(
                    "node {child} linked twice"
                )));
            }
            linked_from[child] = (idx as u32, slot as u32);
            tree.link(idx, slot, child);
        }
    }
    if let Some(idx) = linked_from.iter().skip(1).position(|&(p, _)| p == NIL) {
        return Err(PlanCodecError::Corrupt(format!(
            "node {} is orphaned (never linked)",
            idx + 1
        )));
    }
    if n_nodes > 0 {
        tree.root = 0;
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgt_lattice::bytes;
    use sbgt_response::BinaryDilutionModel;

    fn key(risks: &[f64]) -> PlanKey {
        PlanKey::new(
            risks,
            &BinaryDilutionModel::pcr_like(),
            &ClassificationRule::symmetric(0.99),
            2,
            8,
            None,
            PlanLineage::Dense,
        )
    }

    fn sel(bits: u64, mass: f64) -> Selection {
        Selection {
            pool: State(bits),
            negative_mass: mass,
            distance: (mass - 0.5).abs(),
        }
    }

    #[test]
    fn quantizer_snaps_to_bucket_midpoints() {
        let q = RiskQuantizer::new(10);
        assert!(q.is_enabled());
        assert_eq!(q.snap(0.02), 0.05);
        assert_eq!(q.snap(0.07), 0.05);
        assert_eq!(q.snap(0.13), 0.15);
        // Extremes stay strictly inside (0, 1).
        assert_eq!(q.snap(0.0), 0.05);
        assert_eq!(q.snap(1.0), 0.95);
        assert_eq!(q.snap(-0.5), 0.05);
        // Disabled quantizer is the identity.
        let off = RiskQuantizer::new(0);
        assert!(!off.is_enabled());
        assert_eq!(off.snap(0.1234).to_bits(), 0.1234f64.to_bits());
        assert_eq!(
            q.snap_all(&[0.02, 0.07]),
            vec![0.05, 0.05],
            "same bucket collapses to one representative"
        );
    }

    #[test]
    fn key_diff_names_the_differing_field() {
        let a = key(&[0.05, 0.15]);
        assert_eq!(a.diff(&a.clone()), None);
        let b = key(&[0.05, 0.25]);
        assert_eq!(a.diff(&b), Some("risk_bits"));
        let mut c = key(&[0.05, 0.15]);
        c.stage_width = 3;
        assert_eq!(a.diff(&c), Some("stage_width"));
        let mut d = key(&[0.05, 0.15]);
        d.lineage = PlanLineage::Sharded { parts: 4 };
        assert_eq!(a.diff(&d), Some("lineage"));
        assert_eq!(a == b, a.diff(&b).is_none());
    }

    /// Regression: a shared cache can never serve a dense-derived tree to
    /// an approx (BP/particle) session or vice versa — the lineage
    /// discriminant forces a key mismatch even when every other field
    /// (risks, model, rule, widths) is identical.
    #[test]
    fn approx_lineages_never_collide_with_exact_keys() {
        let dense = key(&[0.05, 0.15]);
        let mut bp = key(&[0.05, 0.15]);
        bp.lineage = PlanLineage::Bp {
            max_iters: 50,
            damping_bits: 0.5f64.to_bits(),
        };
        let mut particle = key(&[0.05, 0.15]);
        particle.lineage = PlanLineage::Particle {
            particles: 4096,
            ess_bits: 0.5f64.to_bits(),
        };
        assert_ne!(dense, bp);
        assert_ne!(dense, particle);
        assert_ne!(bp, particle);
        assert_eq!(dense.diff(&bp), Some("lineage"));
        assert_eq!(dense.diff(&particle), Some("lineage"));
        assert_eq!(bp.diff(&particle), Some("lineage"));
        // Differently-tuned approx sessions are distinct keys too.
        let mut fewer = bp.clone();
        fewer.lineage = PlanLineage::Bp {
            max_iters: 25,
            damping_bits: 0.5f64.to_bits(),
        };
        assert_eq!(bp.diff(&fewer), Some("lineage"));

        // The new lineage tags survive the SBGTPLAN codec: a cache holding
        // trees under all three lineages exports and re-imports them as
        // three separate entries.
        let cache = PlanCache::new(64);
        for k in [dense.clone(), bp.clone(), particle.clone()] {
            cache.handle(k).extend(&[], &[sel(0b1, 0.5)]);
        }
        let fresh = PlanCache::new(64);
        assert_eq!(fresh.import(&cache.export()).unwrap(), 3);
        assert!(fresh.handle(bp).lookup(&[]).is_some());
        assert!(fresh.handle(particle).lookup(&[]).is_some());
        assert!(fresh.handle(dense).lookup(&[]).is_some());
    }

    #[test]
    fn model_fingerprint_separates_models() {
        let pcr = BinaryDilutionModel::pcr_like();
        let a = model_fingerprint(&pcr, 8);
        assert_eq!(a, model_fingerprint(&pcr, 8), "fingerprint is stable");
        assert_ne!(
            a,
            model_fingerprint(&pcr, 4),
            "pool-size cap changes the evaluated tables"
        );
    }

    #[test]
    fn walk_hits_extends_and_detaches() {
        let mut tree = PlanTree::new(64);
        // Empty tree: root slot is vacant, deeper histories detached.
        assert!(tree.lookup(&[]).is_none());
        let s0 = vec![sel(0b011, 0.48), sel(0b111, 0.52)];
        assert_eq!(tree.extend(&[], &s0), Some(0));
        assert_eq!(tree.lookup(&[]).unwrap(), s0);

        // Child slot indexed by the stage's joint outcome bits.
        let h_neg_pos = [(State(0b011), false), (State(0b111), true)];
        assert!(tree.lookup(&h_neg_pos).is_none());
        let s1 = vec![sel(0b001, 0.5), sel(0b100, 0.47)];
        assert_eq!(tree.extend(&h_neg_pos, &s1), Some(0));
        assert_eq!(tree.lookup(&h_neg_pos).unwrap(), s1);
        // The sibling branch is still vacant, not confused with it.
        let h_pos_pos = [(State(0b011), true), (State(0b111), true)];
        assert!(tree.lookup(&h_pos_pos).is_none());

        // A pool mismatch detaches: no hit, and extends are refused.
        let mismatched = [(State(0b010), false), (State(0b111), true)];
        assert!(tree.lookup(&mismatched).is_none());
        assert_eq!(tree.extend(&mismatched, &s1), None);
        // A partial stage detaches too.
        let partial = [(State(0b011), false)];
        assert!(tree.lookup(&partial).is_none());
        assert_eq!(tree.extend(&partial, &s1), None);
        // Re-extending an occupied slot is a no-op.
        assert_eq!(tree.extend(&h_neg_pos, &s0), None);
        assert_eq!(tree.len(), 2, "root + one outcome branch");
    }

    #[test]
    fn empty_or_oversized_stages_are_not_cached() {
        let mut tree = PlanTree::new(64);
        assert_eq!(tree.extend(&[], &[]), None);
        let huge: Vec<Selection> = (0..=PLAN_MAX_STAGE_POOLS as u64)
            .map(|i| sel(1 << i, 0.5))
            .collect();
        assert_eq!(tree.extend(&[], &huge), None);
        assert!(tree.is_empty());
    }

    #[test]
    fn eviction_respects_budget_and_protects_the_insert_path() {
        let mut tree = PlanTree::new(3);
        let root = vec![sel(0b1, 0.5)];
        tree.extend(&[], &root).unwrap();
        // Two children; touch the positive one to make the negative cold.
        let h_neg = [(State(0b1), false)];
        let h_pos = [(State(0b1), true)];
        tree.extend(&h_neg, &[sel(0b10, 0.4)]).unwrap();
        tree.extend(&h_pos, &[sel(0b100, 0.6)]).unwrap();
        assert!(tree.lookup(&h_pos).is_some());
        // A fourth node exceeds the budget of 3; the cold negative branch
        // goes, the fresh insert and its path stay.
        let h_pos_deep = [(State(0b1), true), (State(0b100), false)];
        let evicted = tree.extend(&h_pos_deep, &[sel(0b1000, 0.5)]).unwrap();
        assert_eq!(evicted, 1);
        assert_eq!(tree.len(), 3);
        assert!(tree.lookup(&h_neg).is_none(), "cold branch evicted");
        assert!(tree.lookup(&h_pos_deep).is_some(), "insert survived");
        assert!(tree.lookup(&[]).is_some(), "root survived");
        // The evicted branch re-extends cleanly into the freed slot.
        tree.extend(&h_neg, &[sel(0b10, 0.4)]);
        assert!(tree.lookup(&h_neg).is_some() || tree.len() <= 3);
    }

    #[test]
    fn budget_smaller_than_one_path_keeps_the_path() {
        let mut tree = PlanTree::new(1);
        tree.extend(&[], &[sel(0b1, 0.5)]).unwrap();
        let h = [(State(0b1), false)];
        // The new node's path (root + itself) exceeds the budget but has no
        // evictable off-path subtree; the tree keeps it instead of
        // thrashing its own spine.
        assert_eq!(tree.extend(&h, &[sel(0b10, 0.5)]), Some(0));
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn handle_counts_hits_misses_extends_and_evictions() {
        let cache = PlanCache::new(2);
        let handle = cache.handle(key(&[0.05, 0.15]));
        assert!(handle.lookup(&[]).is_none());
        handle.extend(&[], &[sel(0b1, 0.5)]);
        assert!(handle.lookup(&[]).is_some());
        handle.extend(&[(State(0b1), false)], &[sel(0b10, 0.5)]);
        handle.extend(&[(State(0b1), true)], &[sel(0b100, 0.5)]);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.extends, 3);
        assert!(stats.evictions >= 1, "budget of 2 must evict");
        // Same key, same tree; different key, different tree.
        let again = cache.handle(key(&[0.05, 0.15]));
        assert_eq!(again.tree_len(), handle.tree_len());
        assert_eq!(cache.tree_count(), 1);
        cache.handle(key(&[0.05, 0.25]));
        assert_eq!(cache.tree_count(), 2);
    }

    /// Three trees under three lineages (one with a sparse-switch policy),
    /// the first with a width-2 root and two outcome branches below it.
    fn sample_cache() -> Arc<PlanCache> {
        let cache = PlanCache::new(64);
        let handle = cache.handle(key(&[0.05, 0.15, 0.25]));
        handle.extend(&[], &[sel(0b011, 0.48), sel(0b111, 0.52)]);
        handle.extend(
            &[(State(0b011), false), (State(0b111), true)],
            &[sel(0b001, 0.5)],
        );
        handle.extend(
            &[(State(0b011), true), (State(0b111), true)],
            &[sel(0b100, 0.49)],
        );
        let mut sharded = key(&[0.35]);
        sharded.lineage = PlanLineage::Sharded { parts: 4 };
        sharded.sparse_switch_bits = Some((0.25f64.to_bits(), 1e-9f64.to_bits()));
        cache.handle(sharded).extend(&[], &[sel(0b1, 0.51)]);
        let mut sparse = key(&[0.35]);
        sparse.lineage = PlanLineage::Sparse {
            epsilon_bits: 1e-9f64.to_bits(),
        };
        let handle = cache.handle(sparse);
        handle.extend(&[], &[sel(0b1, 0.51)]);
        handle.extend(&[(State(0b1), true)], &[sel(0b1, 0.3)]);
        cache
    }

    fn reencode(bytes: &[u8]) -> Result<Vec<u8>, PlanCodecError> {
        let cache = PlanCache::new(64);
        cache.import(bytes)?;
        Ok(cache.export())
    }

    #[test]
    fn sbgtplan_round_trips_and_survives_the_tamper_harness() {
        let cache = sample_cache();
        let blob = cache.export();
        let restored = PlanCache::new(64);
        assert_eq!(restored.import(&blob).unwrap(), 3);
        assert_eq!(restored.tree_count(), 3);
        assert_eq!(restored.total_nodes(), cache.total_nodes());
        let h = restored.handle(key(&[0.05, 0.15, 0.25]));
        assert_eq!(
            h.lookup(&[]).unwrap(),
            vec![sel(0b011, 0.48), sel(0b111, 0.52)]
        );
        // Import into a cache that already has the keys keeps the live trees.
        assert_eq!(cache.import(&blob).unwrap(), 0);
        bytes::check(&blob, reencode);
    }

    /// The same cache exported by the commit before the shared byte layer
    /// (`ae8dcfc`), as version 1: no byte of the layout may have moved, only
    /// the version word. The recorded blob still decodes; its width-2
    /// `Dense` tree and its sharded tree are dropped and the sparse tree
    /// adopted.
    #[test]
    fn export_matches_the_bytes_the_parent_commit_wrote() {
        let hex = include_str!("../tests/data/parent_plan.txt")
            .strip_prefix("SBGTPLAN ")
            .expect("recorded SBGTPLAN line");
        let recorded = bytes::from_hex(hex.trim_end());
        let mut v1 = Writer::new();
        v1.raw(MAGIC);
        v1.u32(1);
        assert_eq!(recorded[..12], v1.into_bytes()[..], "a version-1 header");
        let mut current = Writer::new();
        current.raw(MAGIC);
        current.u32(VERSION);
        current.raw(&recorded[12..]);
        assert!(
            sample_cache().export() == current.into_bytes(),
            "SBGTPLAN bytes moved"
        );
        let cache = PlanCache::new(64);
        assert_eq!(cache.import(&recorded), Ok(1));
        assert!(cache.handle(key(&[0.05, 0.15, 0.25])).lookup(&[]).is_none());
    }

    #[test]
    fn structural_violations_are_named() {
        let blob = sample_cache().export();
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'Z';
        let err = PlanCache::new(64).import(&bad_magic).unwrap_err();
        assert_eq!(err.to_string(), "corrupt SBGTPLAN blob: bad plan magic");
        let err = PlanCache::new(64).import(&blob[..4]).unwrap_err();
        assert!(err
            .to_string()
            .starts_with("corrupt SBGTPLAN blob: truncated"));

        // One tree of `nodes`, each one width-1 selection plus two child
        // slots, under the smallest key.
        let tree = |nodes: &[[u32; 2]]| {
            let mut w = Writer::new();
            w.raw(MAGIC);
            w.u32(VERSION);
            w.u32(1);
            write_key(&mut w, &key(&[]));
            w.u32(nodes.len() as u32);
            for slots in nodes {
                w.u8(1);
                w.u64(0b1);
                w.f64(0.5);
                w.f64(0.0);
                w.u32(slots[0]);
                w.u32(slots[1]);
            }
            PlanCache::new(64).import(&w.into_bytes())
        };
        const NONE: u32 = u32::MAX;
        assert_eq!(tree(&[[1, NONE], [NONE, NONE]]), Ok(1));
        for (nodes, why) in [
            (&[[NONE, NONE], [NONE, NONE]][..], "node 1 is orphaned"),
            (&[[1, 1], [NONE, NONE]][..], "node 1 linked twice"),
            (&[[0, NONE]][..], "links the root as a child"),
            (
                &[[2, NONE], [NONE, NONE]][..],
                "links child 2 beyond 2 nodes",
            ),
            // Each non-root node is linked exactly once, but 1 and 2 link
            // each other and the root links neither.
            (
                &[[NONE, NONE], [2, NONE], [1, NONE]][..],
                "node 2 links child 1 out of breadth-first order",
            ),
        ] {
            let err = tree(nodes).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
        }
        // A node count claiming every remaining byte is rejected at the
        // count, before the `referenced` table is allocated for it.
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u32(VERSION);
        w.u32(1);
        write_key(&mut w, &key(&[]));
        w.u32(64);
        w.raw(&[0; 64]);
        let err = PlanCache::new(64).import(&w.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("node count 64"), "{err}");
    }

    /// A blob holding a tree under the retired tag 1 (the rayon-chunked
    /// lineage, with its chunk length and threshold) beside a tag-0 tree:
    /// both decode, only the tag-0 tree is adopted, counted and replayed,
    /// and the blob re-encodes to that tree alone.
    #[test]
    fn a_retired_lineage_tree_decodes_and_is_dropped() {
        let live = PlanCache::new(64);
        live.handle(key(&[0.05])).extend(&[], &[sel(0b1, 0.5)]);
        let canonical = live.export();

        let mut retired_key = Writer::new();
        write_key(&mut retired_key, &key(&[0.05]));
        let mut retired_key = retired_key.into_bytes();
        // A `Dense` key ends in its tag byte.
        *retired_key.last_mut().unwrap() = 1;
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u32(VERSION);
        w.u32(2);
        w.raw(&retired_key);
        w.u64(1 << 14);
        w.u64(1 << 16);
        w.u32(1);
        w.u8(1);
        w.u64(0b10);
        w.f64(0.25);
        w.f64(0.25);
        w.u32(NIL);
        w.u32(NIL);
        // The tag-0 key and tree, after the header's magic, version and count.
        w.raw(&canonical[16..]);
        let blob = w.into_bytes();

        let cache = PlanCache::new(64);
        assert_eq!(cache.import(&blob), Ok(1));
        assert_eq!(cache.tree_count(), 1);
        assert_eq!(
            cache.handle(key(&[0.05])).lookup(&[]),
            Some(vec![sel(0b1, 0.5)])
        );
        bytes::check_against(&blob, &canonical, reencode);
    }

    /// `cache` exported, with the header of version `version`.
    fn export_as(cache: &PlanCache, version: u32) -> Vec<u8> {
        let mut blob = cache.export();
        let mut header = Writer::new();
        header.raw(MAGIC);
        header.u32(version);
        blob[..12].copy_from_slice(&header.into_bytes());
        blob
    }

    /// Import a version-`version` blob of one `sel(0b1, 0.5)` root per key
    /// in `kept` and `dropped`: every tree decodes, the `kept` trees alone
    /// are adopted and replayed, and the blob re-encodes as the current
    /// version without the others.
    fn assert_import_keeps(version: u32, kept: &[PlanKey], dropped: &[PlanKey]) {
        let parent = PlanCache::new(64);
        for k in kept.iter().chain(dropped) {
            parent.handle(k.clone()).extend(&[], &[sel(0b1, 0.5)]);
        }
        let blob = export_as(&parent, version);
        let cache = PlanCache::new(64);
        assert_eq!(cache.import(&blob), Ok(kept.len()), "version {version}");
        assert_eq!(cache.tree_count(), kept.len());
        let canonical = cache.export();
        assert_eq!(PlanCache::new(64).import(&canonical), Ok(kept.len()));
        bytes::check_against(&blob, &canonical, reencode);
        for k in kept {
            assert_eq!(
                cache.handle(k.clone()).lookup(&[]),
                Some(vec![sel(0b1, 0.5)])
            );
        }
        for k in dropped {
            let handle = cache.handle(k.clone());
            assert_eq!(handle.lookup(&[]), None);
            assert_eq!(handle.tree_len(), 0);
        }
    }

    /// A version-1 blob of four trees: look-ahead (width 2) and width-1
    /// trees under the `Dense` lineage, and look-ahead trees under the
    /// sharded and sparse lineages. All four decode; the `Dense` look-ahead
    /// tree (version 2) and the sharded tree (version 3) are dropped, never
    /// replayed, and the blob re-encodes without them.
    #[test]
    fn a_parent_lookahead_tree_decodes_and_is_dropped() {
        let mut width_one = key(&[0.05]);
        width_one.stage_width = 1;
        let mut sharded = key(&[0.05]);
        sharded.lineage = PlanLineage::Sharded { parts: 4 };
        let mut sparse = key(&[0.05]);
        sparse.lineage = PlanLineage::Sparse {
            epsilon_bits: 1e-9f64.to_bits(),
        };
        assert_import_keeps(1, &[width_one, sparse], &[key(&[0.05]), sharded]);
    }

    /// Version-2 trees whose sums contraction moves — every sharded tree and
    /// the `Dense` trees of 17 subjects or more, with or without a sparse
    /// switch — decode and are dropped. The `Dense` trees of one-block
    /// lattices and the sparse trees keep their bits and are adopted, and a
    /// version-3 blob adopts every tree.
    #[test]
    fn a_parent_contracting_lineage_tree_decodes_and_is_dropped() {
        let seventeen = key(&[0.05; 17]);
        let mut hybrid = seventeen.clone();
        hybrid.sparse_switch_bits = Some((0.25f64.to_bits(), 1e-9f64.to_bits()));
        let mut sharded = key(&[0.05]);
        sharded.lineage = PlanLineage::Sharded { parts: 1 };
        let mut sparse = seventeen.clone();
        sparse.lineage = PlanLineage::Sparse {
            epsilon_bits: 1e-9f64.to_bits(),
        };
        let kept = [key(&[0.05; 16]), sparse];
        let dropped = [seventeen, hybrid, sharded];
        assert_import_keeps(2, &kept, &dropped);
        let all: Vec<PlanKey> = kept.iter().chain(&dropped).cloned().collect();
        assert_import_keeps(VERSION, &all, &[]);
    }

    #[test]
    fn imported_trees_enforce_the_importers_budget() {
        let cache = PlanCache::new(64);
        let handle = cache.handle(key(&[0.05]));
        handle.extend(&[], &[sel(0b1, 0.5)]);
        handle.extend(&[(State(0b1), false)], &[sel(0b10, 0.5)]);
        handle.extend(&[(State(0b1), true)], &[sel(0b100, 0.5)]);
        let blob = cache.export();
        let tight = PlanCache::new(2);
        tight.import(&blob).unwrap();
        let h = tight.handle(key(&[0.05]));
        // The imported tree is over the tight budget; the next extension
        // trims it back down.
        h.extend(
            &[(State(0b1), false), (State(0b10), false)],
            &[sel(0b1000, 0.5)],
        );
        assert!(h.tree_len() <= 2 + 1, "budget enforced after extension");
        assert!(tight.stats().evictions > 0);
    }

    /// Every structural invariant of the arena, checked from the root: back
    /// links and child counts agree with the child slots, a node is never
    /// older than its children, the leaf column mirrors the leaves, and
    /// every slot is either reachable from the root or free — never both.
    fn assert_arena_invariants(tree: &PlanTree) {
        let mut reachable = 0usize;
        let mut stack = Vec::new();
        if tree.root != NIL {
            assert_eq!(tree.nodes[tree.root as usize].parent, NIL);
            stack.push(tree.root as usize);
        }
        while let Some(i) = stack.pop() {
            let node = &tree.nodes[i];
            assert!(!node.selections.is_empty(), "free slot {i} is reachable");
            reachable += 1;
            assert!(reachable <= tree.len(), "more nodes reachable than live");
            let mut count = 0;
            for (mask, &child) in node.children.iter().enumerate() {
                if child == NIL {
                    continue;
                }
                let c = &tree.nodes[child as usize];
                assert_eq!((c.parent, c.mask), (i as u32, mask as u32));
                assert!(node.touch >= c.touch, "node {i} older than child {child}");
                count += 1;
                stack.push(child as usize);
            }
            assert_eq!(node.child_count, count);
            let leaf = if count == 0 { node.touch } else { u64::MAX };
            assert_eq!(tree.leaf_touch[i], leaf);
        }
        assert_eq!(reachable, tree.len(), "a live node is unreachable");
        for &slot in &tree.free {
            assert!(tree.nodes[slot as usize].selections.is_empty());
            assert_eq!(tree.leaf_touch[slot as usize], u64::MAX);
        }
    }

    /// The width-3 plan the churn sessions follow: pools are a pure
    /// function of the history, so every hit can be checked against it.
    fn churn_plan(history: &[(State, bool)]) -> Vec<Selection> {
        let h = history
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &(pool, out)| {
                (h ^ pool.bits() ^ u64::from(out)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        (0..3)
            .map(|i| sel(1 + (h.rotate_left(21 * i) & 0xff), 0.5))
            .collect()
    }

    /// A seeded stream of sessions over a width-3 tree at a budget far
    /// below its reach: hits, misses that extend, and detached walks (a
    /// wrong pool, a partial stage) interleave while slots are evicted and
    /// reused. After every call the arena is sound and within budget, every
    /// hit replays exactly the plan that was inserted, and the churned
    /// layout is invisible to the codec.
    #[test]
    fn churn_keeps_the_arena_sound_and_the_codec_blind_to_slot_reuse() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        const BUDGET: usize = 12;
        let cache = PlanCache::new(BUDGET);
        let handle = cache.handle(key(&[0.05, 0.15, 0.25]));
        let check = |bound: usize| {
            let tree = handle.tree.lock().unwrap();
            assert_arena_invariants(&tree);
            assert!(
                tree.len() <= bound,
                "{} nodes over a bound of {bound}",
                tree.len()
            );
        };
        let mut rng = StdRng::seed_from_u64(30);
        let (mut lookups, mut detached) = (0u64, 0u64);
        let mut bound = BUDGET;
        for _ in 0..1500 {
            let mut history: Vec<(State, bool)> = Vec::new();
            for stage in 0..rng.random_range(1usize..=5) {
                let plan = churn_plan(&history);
                lookups += 1;
                match handle.lookup(&history) {
                    Some(got) => assert_eq!(got, plan, "a hit replayed a foreign plan"),
                    None => {
                        let before = cache.stats().extends;
                        handle.extend(&history, &plan);
                        if cache.stats().extends > before {
                            bound = BUDGET.max(stage + 1);
                        }
                    }
                }
                check(bound);
                for s in &plan {
                    history.push((s.pool, rng.random_bool(0.2)));
                }
            }
            if rng.random_bool(0.25) {
                // Leave the tree mid-branch: a pool no plan selects, or the
                // last stage cut short.
                if rng.random_bool(0.5) {
                    let at = history.len() - 1 - rng.random_range(0usize..3);
                    history[at].0 = State(0x1000);
                } else {
                    history.pop();
                }
                let plan = churn_plan(&history);
                lookups += 1;
                detached += 1;
                assert!(handle.lookup(&history).is_none(), "a detached walk hit");
                handle.extend(&history, &plan);
                check(bound);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert!(stats.hits > 0 && stats.misses > detached, "{stats:?}");
        assert!(stats.evictions > 0, "the budget must bite: {stats:?}");
        // Freed slots are reused: the arena never outgrows its largest tree.
        assert!(handle.tree.lock().unwrap().nodes.len() <= BUDGET + 1);

        let blob = cache.export();
        let restored = PlanCache::new(BUDGET);
        assert_eq!(restored.import(&blob).unwrap(), 1);
        assert_eq!(restored.total_nodes(), cache.total_nodes());
        assert_eq!(
            restored.export(),
            blob,
            "export depends on the arena layout"
        );
    }
}
