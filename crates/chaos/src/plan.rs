//! Fault plans: a declarative, seeded description of everything that is
//! allowed to go wrong in one chaos run.
//!
//! A [`FaultPlan`] is data, not behaviour — it can be printed, compared
//! and replayed. The [`ChaosInjector`](crate::ChaosInjector) interprets
//! it deterministically: probabilistic rules draw from a hash of
//! `(plan seed, rule index, traffic stream, per-stream issue counter)`,
//! so two runs with the same plan see the same decision at the same
//! point of every `(src, dst, verb)` stream regardless of wall-clock
//! timing. Windowed faults (partitions, NIC flaps) are keyed off the
//! issuing worker's *virtual* clock instead, which is itself a
//! deterministic function of that worker's operation stream.

use drtm_rdma::{NodeId, Verb};

/// Probability in units of 1/1000 (0 = never, 1000 = always).
pub type PerMille = u16;

/// One probabilistic perturbation rule over a slice of the traffic
/// matrix. Empty/`None` selectors match everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultRule {
    /// Only traffic issued by this node (any if `None`).
    pub src: Option<NodeId>,
    /// Only traffic destined to this node (any if `None`).
    pub dst: Option<NodeId>,
    /// Only these verb classes (all if empty).
    pub verbs: Vec<Verb>,
    /// Probability of losing the packet once. A one-sided WR fails with
    /// `VerbError::Dropped` and flushes the WRs posted behind it; its
    /// poster re-posts it or aborts the transaction. A SEND lands after
    /// an RC retransmission penalty (see [`drtm_rdma::Fault`]). Keep it
    /// below 1000 on one-sided verbs: a commit re-posts a dropped C.5
    /// image or C.6 unlock until it lands, so a rule that drops every
    /// one never lets that commit finish.
    pub drop: PerMille,
    /// Probability of duplicating the packet (extra wire bytes on both
    /// NICs, no semantic effect — RC discards the duplicate).
    pub duplicate: PerMille,
    /// Probability of delaying the verb by [`FaultRule::delay_ns`].
    pub delay: PerMille,
    /// Delay charged to the issuing worker's virtual clock when the
    /// `delay` draw hits, in nanoseconds.
    pub delay_ns: u64,
    /// Wire bytes charged per duplicated packet.
    pub dup_wire: u64,
}

impl FaultRule {
    /// Whether this rule applies to one issue of `verb` from `src` to
    /// `dst`.
    pub fn matches(&self, src: NodeId, dst: NodeId, verb: Verb) -> bool {
        self.src.map(|n| n == src).unwrap_or(true)
            && self.dst.map(|n| n == dst).unwrap_or(true)
            && (self.verbs.is_empty() || self.verbs.contains(&verb))
    }
}

/// A network partition active over a window of *virtual* time: every
/// verb crossing the cut pays a stall and is dropped. A one-sided WR
/// fails, and each re-post fails again until the window closes; a SEND
/// lands after the stall and its retransmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut; everything not listed is on the other side.
    pub group: Vec<NodeId>,
    /// Window start, in virtual ns of the issuing worker's clock.
    pub from_ns: u64,
    /// Window end (exclusive).
    pub until_ns: u64,
    /// Stall charged per crossing verb while the window is active.
    pub stall_ns: u64,
}

impl Partition {
    /// Whether a verb issued at virtual time `now` crosses the cut.
    pub fn cuts(&self, src: NodeId, dst: NodeId, now: u64) -> bool {
        now >= self.from_ns
            && now < self.until_ns
            && self.group.contains(&src) != self.group.contains(&dst)
    }
}

/// One NIC going dark for a window of virtual time: every verb touching
/// `node` (in or out) is dropped and stalled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicFlap {
    /// The machine whose NIC flaps.
    pub node: NodeId,
    /// Window start, in virtual ns.
    pub from_ns: u64,
    /// Window end (exclusive).
    pub until_ns: u64,
    /// Stall charged per affected verb.
    pub stall_ns: u64,
}

impl NicFlap {
    /// Whether a verb issued at virtual time `now` hits the dark NIC.
    pub fn hits(&self, src: NodeId, dst: NodeId, now: u64) -> bool {
        now >= self.from_ns && now < self.until_ns && (src == self.node || dst == self.node)
    }
}

/// Kill `node` the `hit`-th time it passes crash point `point`
/// (1-based). Points are the protocol-step probes in `drtm-core`:
/// `C.1`–`C.6` in the commit paths, `R.1`–`R.3` in replication. The
/// probe fires *after* the named step completes, so a `C.4` crash dies
/// with local writes applied (odd) but nothing logged, and a `C.5`
/// crash dies fully applied but still holding every remote lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSpec {
    /// The machine to kill.
    pub node: NodeId,
    /// Crash-point name (`"C.1"` … `"C.6"`, `"R.1"` … `"R.3"`).
    pub point: &'static str,
    /// Fire on the `hit`-th passage (1-based); earlier passages survive.
    pub hit: u64,
}

/// A complete, replayable fault schedule for one chaos run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw.
    pub seed: u64,
    /// Probabilistic per-verb rules.
    pub rules: Vec<FaultRule>,
    /// Virtual-time partition windows.
    pub partitions: Vec<Partition>,
    /// Virtual-time NIC flap windows.
    pub flaps: Vec<NicFlap>,
    /// Counted crash points.
    pub crashes: Vec<CrashSpec>,
}

impl FaultPlan {
    /// A plan with no faults, drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds a probabilistic rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a rule dropping `per_mille`/1000 of every verb class on
    /// every node pair.
    pub fn drop_everywhere(self, per_mille: PerMille) -> Self {
        self.rule(FaultRule {
            drop: per_mille,
            ..FaultRule::default()
        })
    }

    /// Adds a rule delaying `per_mille`/1000 of all traffic by
    /// `delay_ns`.
    pub fn delay_everywhere(self, per_mille: PerMille, delay_ns: u64) -> Self {
        self.rule(FaultRule {
            delay: per_mille,
            delay_ns,
            ..FaultRule::default()
        })
    }

    /// Adds a rule duplicating `per_mille`/1000 of all traffic
    /// (`dup_wire` extra bytes each).
    pub fn duplicate_everywhere(self, per_mille: PerMille, dup_wire: u64) -> Self {
        self.rule(FaultRule {
            duplicate: per_mille,
            dup_wire,
            ..FaultRule::default()
        })
    }

    /// Adds a partition window.
    pub fn partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Adds a NIC flap window.
    pub fn flap(mut self, f: NicFlap) -> Self {
        self.flaps.push(f);
        self
    }

    /// Kills `node` the `hit`-th time it passes `point`.
    ///
    /// # Panics
    ///
    /// If `point` is not one of [`crate::CRASH_POINTS`]: a misspelt
    /// point would never fire and the run would pass as "no crash".
    pub fn crash_at(mut self, node: NodeId, point: &'static str, hit: u64) -> Self {
        let valid = crate::CRASH_POINTS.map(|(p, _)| p);
        assert!(
            valid.contains(&point),
            "unknown crash point {point:?}; valid points: {valid:?}"
        );
        self.crashes.push(CrashSpec { node, point, hit });
        self
    }
}
