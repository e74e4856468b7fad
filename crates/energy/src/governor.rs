//! Fleet governor: central frequency allocation under a global power
//! budget, the per-machine local fallback, and the partition-tolerant
//! **degradation ladder**.
//!
//! The ROADMAP's fleet-scale service has one central DVFS governor
//! allocating frequencies to many machines. A central allocator is only
//! production-grade if each machine degrades gracefully when the fleet
//! misbehaves, so control authority forms a three-rung ladder:
//!
//! 1. [`GovernorMode::Central`] — the machine runs whatever frequency the
//!    central governor allocated from the global budget;
//! 2. [`GovernorMode::LocalDepBurst`] — on partition or sustained
//!    telemetry loss, the machine falls back to a local DEP+BURST-style
//!    governor ([`LocalGovernor`]): lowest ladder frequency within a
//!    tolerable predicted slowdown, the paper's §VI policy applied to the
//!    machine's own characterization (the Pac-Sim framing: a cheap local
//!    model stands in when full information is unavailable);
//! 3. [`GovernorMode::FallbackMax`] — on continued telemetry loss (or a
//!    crash restart) the machine pins its ladder maximum, the PR 1
//!    hardened fallback: always safe for latency, never for energy.
//!
//! Rejoin is **hysteretic**: each climb back up requires a full window of
//! confirmed-healthy rounds ([`DegradationConfig::rejoin_threshold`]) and
//! moves exactly one rung, so a flapping link cannot oscillate a machine
//! between central and fallback control. [`DegradationLadder`] is a pure
//! state machine over `(reachable, telemetry_ok)` observations — no
//! randomness, no clocks — which is what makes failover sequences a pure
//! function of the chaos schedule and lets
//! `simx::Invariant::RejoinMonotonicity` check every recorded transition.

use core::cmp::Ordering;
use core::fmt;
use std::collections::BinaryHeap;

use depburst_core::DepburstError;
use dvfs_trace::{Freq, FreqLadder};

use crate::power::PowerModel;

/// Who controls a machine's frequency right now (the ladder rung).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorMode {
    /// The central governor's allocation applies.
    Central,
    /// The machine self-governs with a local DEP+BURST policy.
    LocalDepBurst,
    /// The machine pins its maximum frequency (hardened fallback).
    FallbackMax,
}

impl GovernorMode {
    /// Ladder rung height: higher is more centralized.
    #[must_use]
    pub fn rung(self) -> u8 {
        match self {
            GovernorMode::FallbackMax => 0,
            GovernorMode::LocalDepBurst => 1,
            GovernorMode::Central => 2,
        }
    }

    /// Stable kebab-case name used in reports and transition logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GovernorMode::Central => "central",
            GovernorMode::LocalDepBurst => "local-depburst",
            GovernorMode::FallbackMax => "fallback-max",
        }
    }

    /// The rung one step toward central control, if any.
    #[must_use]
    pub fn promoted(self) -> Option<GovernorMode> {
        match self {
            GovernorMode::FallbackMax => Some(GovernorMode::LocalDepBurst),
            GovernorMode::LocalDepBurst => Some(GovernorMode::Central),
            GovernorMode::Central => None,
        }
    }
}

impl fmt::Display for GovernorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Streak thresholds of the degradation ladder, in rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationConfig {
    /// Consecutive governor-unreachable rounds before leaving
    /// [`GovernorMode::Central`].
    pub partition_tolerance: u32,
    /// Consecutive telemetry-less rounds before dropping one rung
    /// (central control and the local predictor both starve without
    /// counter harvests).
    pub loss_tolerance: u32,
    /// Consecutive fully-healthy rounds required per one-rung climb back
    /// up (the hysteresis window).
    pub rejoin_threshold: u32,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            partition_tolerance: 2,
            loss_tolerance: 4,
            rejoin_threshold: 3,
        }
    }
}

/// One recorded mode change of a machine's degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Fleet round the transition happened in.
    pub round: u64,
    /// Mode before.
    pub from: GovernorMode,
    /// Mode after.
    pub to: GovernorMode,
    /// Why (static label: "partition", "telemetry-loss", "rejoin",
    /// "crash-restart", ...).
    pub reason: &'static str,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{} {}→{} ({})",
            self.round,
            self.from.name(),
            self.to.name(),
            self.reason
        )
    }
}

/// The per-machine degradation state machine. Deterministic: the mode
/// sequence is a pure function of the observation sequence.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    config: DegradationConfig,
    mode: GovernorMode,
    unreachable_streak: u32,
    loss_streak: u32,
    healthy_streak: u32,
    transitions: Vec<Transition>,
}

impl DegradationLadder {
    /// A fresh ladder, starting under central control.
    #[must_use]
    pub fn new(config: DegradationConfig) -> Self {
        DegradationLadder {
            config,
            mode: GovernorMode::Central,
            unreachable_streak: 0,
            loss_streak: 0,
            healthy_streak: 0,
            transitions: Vec::new(),
        }
    }

    /// The current mode.
    #[must_use]
    pub fn mode(&self) -> GovernorMode {
        self.mode
    }

    /// Every recorded transition, in round order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Feeds one round's health observation and returns the mode that
    /// governs this round. `governor_reachable` is the control link,
    /// `telemetry_ok` the counter-harvest path, and `thermal_ok` is false
    /// for a round under emergency throttle (or worse). Demotions move at
    /// most one rung per round; promotions require a full
    /// [`DegradationConfig::rejoin_threshold`] healthy window each.
    ///
    /// A thermally constrained machine is pinned at its V/f floor and
    /// cannot follow central allocations, so such rounds never count
    /// toward the rejoin window — but they do not demote either (the
    /// throttle ladder, not governor authority, is handling the machine).
    /// Thermal-off fleets pass `thermal_ok = true` every round.
    pub fn observe_health(
        &mut self,
        round: u64,
        governor_reachable: bool,
        telemetry_ok: bool,
        thermal_ok: bool,
    ) -> GovernorMode {
        if governor_reachable {
            self.unreachable_streak = 0;
        } else {
            self.unreachable_streak += 1;
        }
        if telemetry_ok {
            self.loss_streak = 0;
        } else {
            self.loss_streak += 1;
        }
        if governor_reachable && telemetry_ok && thermal_ok {
            self.healthy_streak += 1;
        } else {
            self.healthy_streak = 0;
        }

        match self.mode {
            GovernorMode::Central => {
                if self.unreachable_streak >= self.config.partition_tolerance {
                    self.shift(round, GovernorMode::LocalDepBurst, "partition");
                } else if self.loss_streak >= self.config.loss_tolerance {
                    self.shift(round, GovernorMode::LocalDepBurst, "telemetry-loss");
                }
            }
            GovernorMode::LocalDepBurst => {
                if self.loss_streak >= self.config.loss_tolerance.saturating_mul(2) {
                    self.shift(round, GovernorMode::FallbackMax, "telemetry-loss");
                }
            }
            GovernorMode::FallbackMax => {}
        }

        if self.healthy_streak >= self.config.rejoin_threshold {
            if let Some(up) = self.mode.promoted() {
                self.shift(round, up, "rejoin");
                // Each further rung needs its own full healthy window.
                self.healthy_streak = 0;
            }
        }
        self.mode
    }

    /// Drops straight to [`GovernorMode::FallbackMax`] (a crash restart
    /// reboots into the hardened fallback, whatever the mode was).
    pub fn force_fallback(&mut self, round: u64, reason: &'static str) {
        if self.mode != GovernorMode::FallbackMax {
            self.shift(round, GovernorMode::FallbackMax, reason);
        }
        self.unreachable_streak = 0;
        self.loss_streak = 0;
        self.healthy_streak = 0;
    }

    fn shift(&mut self, round: u64, to: GovernorMode, reason: &'static str) {
        self.transitions.push(Transition {
            round,
            from: self.mode,
            to,
            reason,
        });
        self.mode = to;
    }

    /// Checks the recorded transition log for rejoin-monotonicity: rounds
    /// non-decreasing, every transition an actual change, and every
    /// upward move exactly one rung. Feeds
    /// `simx::Invariant::RejoinMonotonicity`.
    #[must_use]
    pub fn monotonicity_issue(&self) -> Option<String> {
        let mut prev_round = 0u64;
        for t in &self.transitions {
            if t.round < prev_round {
                return Some(format!("transition log out of order at {t}"));
            }
            prev_round = t.round;
            if t.from == t.to {
                return Some(format!("self-transition at {t}"));
            }
            if t.to.rung() > t.from.rung() && t.to.rung() - t.from.rung() != 1 {
                return Some(format!("multi-rung rejoin at {t}"));
            }
        }
        None
    }
}

/// Which fleet-level frequency policy governs the run (CLI `--policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorPolicy {
    /// Central allocation from the true characterization (upper bound:
    /// perfect models, perfect telemetry when reachable).
    Oracle,
    /// Central allocation from DEP+BURST-style telemetry (stale or lossy
    /// under chaos — the realistic operating point).
    DepBurst,
    /// No central control at all: every machine pins its ladder maximum
    /// (the naive, budget-oblivious baseline).
    NaiveStatic,
}

impl GovernorPolicy {
    /// Stable CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GovernorPolicy::Oracle => "oracle",
            GovernorPolicy::DepBurst => "depburst",
            GovernorPolicy::NaiveStatic => "naive",
        }
    }

    /// Parses a [`GovernorPolicy::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        [
            GovernorPolicy::Oracle,
            GovernorPolicy::DepBurst,
            GovernorPolicy::NaiveStatic,
        ]
        .into_iter()
        .find(|p| p.name() == name)
    }
}

impl fmt::Display for GovernorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the central governor knows about one reachable machine: its V/f
/// ladder and a two-component service-time characterization
/// `s(f) = scaling_s / f_ghz + fixed_s` (frequency-scaling work over
/// memory/GC work that does not scale — the DEP+BURST decomposition
/// collapsed to request granularity).
#[derive(Debug, Clone, Copy)]
pub struct MachineView<'a> {
    /// Fleet-wide machine id (allocation order tiebreaker).
    pub id: usize,
    /// The machine's own V/f ladder (heterogeneous across the fleet).
    pub ladder: &'a FreqLadder,
    /// Frequency-scaling service seconds, normalized to 1 GHz.
    pub scaling_s: f64,
    /// Non-scaling service seconds.
    pub fixed_s: f64,
    /// Core count (drives the machine's power estimate).
    pub cores: usize,
}

impl MachineView<'_> {
    /// Predicted per-request service time at `freq`, seconds.
    #[must_use]
    pub fn service_time(&self, freq: Freq) -> f64 {
        self.scaling_s / freq.ghz() + self.fixed_s
    }

    /// Checks [`CentralGovernor::allocate`]'s precondition: `scaling_s`
    /// and `fixed_s` are finite and non-negative (`-0.0` passes).
    ///
    /// # Errors
    /// [`DepburstError::InvalidMachineView`] naming the machine and the
    /// first offending field.
    pub fn validate(&self) -> depburst_core::Result<()> {
        for (field, value) in [("scaling_s", self.scaling_s), ("fixed_s", self.fixed_s)] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(DepburstError::InvalidMachineView {
                    machine: self.id,
                    field,
                    value,
                });
            }
        }
        Ok(())
    }
}

/// One central allocation round's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Chosen frequency per view, parallel to the input slice.
    pub freqs: Vec<Freq>,
    /// Estimated fleet power of the chosen frequencies, watts.
    pub power_w: f64,
    /// The budget slice this allocation had to fit, watts.
    pub available_w: f64,
    /// The unavoidable floor: estimated power with every machine pinned
    /// to its ladder minimum, watts. Water-filling cannot go below it, so
    /// `power_w` may legitimately exceed a slice smaller than this.
    pub floor_w: f64,
}

/// The central DVFS governor: greedy latency-levelling allocation under a
/// global power budget.
#[derive(Debug, Clone, Copy)]
pub struct CentralGovernor {
    /// Whole-fleet power budget, watts.
    pub budget_w: f64,
}

impl CentralGovernor {
    /// A governor with the given fleet budget.
    #[must_use]
    pub fn new(budget_w: f64) -> Self {
        CentralGovernor { budget_w }
    }

    /// Allocates frequencies to the reachable machines in `views`.
    ///
    /// Unreachable machines (self-governing on lower ladder rungs) keep a
    /// pro-rata share of the budget: with `fleet_machines` total, the
    /// reachable set fits inside `budget · |views| / fleet_machines`.
    ///
    /// Greedy water-filling: every machine starts at its ladder minimum;
    /// each step raises the machine with the worst predicted service time
    /// (ties broken by lower position in `views`) one ladder notch, if the
    /// power estimate still fits; machines whose next notch does not fit
    /// are frozen. Deterministic — no randomness, order fixed by
    /// (latency, position).
    ///
    /// A max-heap keyed by (service time, position) finds each step's
    /// machine, and a per-call table holds every view's power at every
    /// rung, so a call costs O(N·L·log N) for N views on ladders of L
    /// rungs. It makes exactly the pick sequence of the O(N²·L) scan kept
    /// in [`reference::allocate`], so `freqs` are identical and `power_w`
    /// is bit-identical (the deltas are added in the same order).
    ///
    /// Precondition: every view passes [`MachineView::validate`]. A NaN
    /// service time has no place in the order, so the allocation is then
    /// unspecified.
    #[must_use]
    pub fn allocate(&self, model: &PowerModel, views: &[MachineView<'_>], fleet_machines: usize) -> Allocation {
        let fleet = fleet_machines.max(views.len()).max(1);
        let available_w = self.budget_w * views.len() as f64 / fleet as f64;

        // Row `i` of the power table is view i's power at each of its
        // rungs, starting at `start[i]`.
        let ones = vec![1.0; views.iter().map(|v| v.cores.max(1)).max().unwrap_or(1)];
        let mut start = Vec::with_capacity(views.len() + 1);
        let mut table = Vec::new();
        for view in views {
            start.push(table.len());
            let cores = &ones[..view.cores.max(1)];
            table.extend(view.ladder.iter().map(|f| model.power(f, cores).total()));
        }
        start.push(table.len());
        let rungs = |i: usize| start[i + 1] - start[i];

        let mut idx: Vec<usize> = vec![0; views.len()];
        let mut power_w: f64 = start[..views.len()].iter().map(|&s| table[s]).sum();
        let floor_w = power_w;

        let raise = |i: usize, rung: usize| Raise {
            latency: views[i].service_time(rung_freq(views[i].ladder, rung)),
            pos: i,
        };
        let mut heap: BinaryHeap<Raise> = (0..views.len())
            .filter(|&i| rungs(i) > 1)
            .map(|i| raise(i, 0))
            .collect();
        while let Some(Raise { pos: i, .. }) = heap.pop() {
            let at = start[i] + idx[i];
            let delta = table[at + 1] - table[at];
            if power_w + delta <= available_w {
                idx[i] += 1;
                power_w += delta;
                if idx[i] + 1 < rungs(i) {
                    heap.push(raise(i, idx[i]));
                }
            }
            // A notch that does not fit freezes the machine: it never
            // re-enters the heap.
        }

        Allocation {
            freqs: idx
                .iter()
                .zip(views)
                .map(|(&k, v)| rung_freq(v.ladder, k))
                .collect(),
            power_w,
            available_w,
            floor_w,
        }
    }
}

/// Rung `k` of `ladder` (the `k`-th element of [`FreqLadder::iter`]).
fn rung_freq(ladder: &FreqLadder, k: usize) -> Freq {
    Freq::from_mhz(ladder.min().mhz() + k as u32 * ladder.step_mhz())
}

/// One machine waiting in [`CentralGovernor::allocate`]'s heap: its
/// service time at its current rung, and its position in `views`.
#[derive(Debug, Clone, Copy)]
struct Raise {
    latency: f64,
    pos: usize,
}

impl Ord for Raise {
    /// Slowest first, then lowest position. `partial_cmp`, not
    /// `total_cmp`: the scan compares with `>`, which (unlike `total_cmp`)
    /// treats `-0.0` and `+0.0` as equal.
    fn cmp(&self, other: &Self) -> Ordering {
        self.latency
            .partial_cmp(&other.latency)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for Raise {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Raise {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Raise {}

/// The original rescanning allocator, O(N²·L) per call, kept as the
/// oracle for [`CentralGovernor::allocate`]'s equivalence proptest.
#[doc(hidden)]
pub mod reference {
    use dvfs_trace::Freq;

    use super::{Allocation, CentralGovernor, MachineView};
    use crate::power::PowerModel;

    /// [`CentralGovernor::allocate`] as a full rescan of `views` for every
    /// one-notch raise.
    #[must_use]
    pub fn allocate(
        governor: &CentralGovernor,
        model: &PowerModel,
        views: &[MachineView<'_>],
        fleet_machines: usize,
    ) -> Allocation {
        let fleet = fleet_machines.max(views.len()).max(1);
        let available_w = governor.budget_w * views.len() as f64 / fleet as f64;

        let ladders: Vec<Vec<Freq>> = views.iter().map(|v| v.ladder.iter().collect()).collect();
        let mut idx: Vec<usize> = vec![0; views.len()];
        let mut frozen: Vec<bool> = vec![false; views.len()];
        let power_of = |view: &MachineView<'_>, freq: Freq| {
            model.power(freq, &vec![1.0; view.cores.max(1)]).total()
        };
        let mut power_w: f64 = views
            .iter()
            .zip(&ladders)
            .map(|(v, l)| power_of(v, l[0]))
            .sum();
        let floor_w = power_w;

        loop {
            // The worst-latency machine that still has headroom.
            let mut pick: Option<(f64, usize)> = None;
            for (i, view) in views.iter().enumerate() {
                if frozen[i] || idx[i] + 1 >= ladders[i].len() {
                    continue;
                }
                let lat = view.service_time(ladders[i][idx[i]]);
                let better = match pick {
                    None => true,
                    Some((best, _)) => lat > best,
                };
                if better {
                    pick = Some((lat, i));
                }
            }
            let Some((_, i)) = pick else { break };
            let delta = power_of(&views[i], ladders[i][idx[i] + 1]) - power_of(&views[i], ladders[i][idx[i]]);
            if power_w + delta <= available_w {
                idx[i] += 1;
                power_w += delta;
            } else {
                frozen[i] = true;
            }
        }

        Allocation {
            freqs: idx.iter().zip(&ladders).map(|(&i, l)| l[i]).collect(),
            power_w,
            available_w,
            floor_w,
        }
    }
}

/// The local DEP+BURST fallback governor: lowest ladder frequency whose
/// predicted slowdown vs. the ladder maximum stays within the bound
/// (paper §VI, applied to the machine's own characterization).
#[derive(Debug, Clone, Copy)]
pub struct LocalGovernor {
    /// Tolerable slowdown vs. the ladder maximum (e.g. `0.05` = 5%).
    pub slowdown_bound: f64,
}

impl LocalGovernor {
    /// A local governor with the given slowdown bound.
    #[must_use]
    pub fn new(slowdown_bound: f64) -> Self {
        LocalGovernor {
            slowdown_bound: slowdown_bound.max(0.0),
        }
    }

    /// Picks the frequency for one machine. Always a member of `ladder`.
    #[must_use]
    pub fn choose(&self, view: &MachineView<'_>) -> Freq {
        let max = view.ladder.max();
        let budget = view.service_time(max) * (1.0 + self.slowdown_bound);
        view.ladder
            .iter()
            .find(|&f| view.service_time(f) <= budget)
            .unwrap_or(max)
    }
}

/// The root of the hierarchical governor: it owns no machines, only the
/// split of the effective global budget across region aggregators.
///
/// Region *shares* (fractions summing to one) are the persistent state.
/// Budget **cuts** propagate instantly — a brownout multiplies every
/// region's watts through the effective budget the same round — but
/// share *redistribution* is damped and dead-banded, so demand swings
/// and shock windows cannot oscillate watts back and forth across
/// regions (the anti-cascade hysteresis). When the root itself is down,
/// shares freeze and every region keeps allocating autonomously inside
/// its frozen share; machines notice nothing. That asymmetry — flat
/// central control dies with its root, a hierarchy only stops
/// *rebalancing* — is the whole point of the extra tier.
#[derive(Debug, Clone)]
pub struct HierarchicalGovernor {
    /// Fraction of the share gap closed per rebalance (`0..=1`).
    pub damping: f64,
    /// Largest per-region share gap that is left alone (hysteresis).
    pub deadband: f64,
    shares: Vec<f64>,
}

impl HierarchicalGovernor {
    /// A root over `regions` regions, starting at equal shares, with the
    /// default damping (30% per round) and deadband (2% of share).
    #[must_use]
    pub fn new(regions: usize) -> Self {
        let regions = regions.max(1);
        HierarchicalGovernor {
            damping: 0.3,
            deadband: 0.02,
            shares: vec![1.0 / regions as f64; regions],
        }
    }

    /// Number of regions.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.shares.len()
    }

    /// The current region shares (always summing to 1 within float
    /// rounding).
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// One rebalance step toward demand-proportional shares. `demand` is
    /// any non-negative per-region load proxy (reachable machines,
    /// queued work); `root_down` freezes the shares entirely — the
    /// regions run autonomously on what they last held.
    ///
    /// Anti-cascade containment: regions marked
    /// `frozen` (typically: their aggregator is unreachable, so their
    /// demand signal is silence, not absence) keep their current share
    /// untouched, and only the active regions' slice of the budget is
    /// redistributed among the active regions. Without this, an orphaned
    /// region's share bleeds to its siblings round over round — the
    /// siblings run hotter on the windfall, and the region rejoins into a
    /// starved, floor-power slice: a textbook failure cascade.
    ///
    /// An empty `frozen` mask means no region is frozen.
    pub fn rebalance_masked(&mut self, demand: &[f64], frozen: &[bool], root_down: bool) {
        if root_down || demand.len() != self.shares.len() {
            return;
        }
        if !frozen.is_empty() && frozen.len() != self.shares.len() {
            return;
        }
        let is_frozen = |r: usize| frozen.get(r).copied().unwrap_or(false);
        let frozen_mass: f64 = self
            .shares
            .iter()
            .enumerate()
            .filter(|(r, _)| is_frozen(*r))
            .map(|(_, s)| s)
            .sum();
        let active_mass = (1.0 - frozen_mass).max(0.0);
        let total: f64 = demand
            .iter()
            .enumerate()
            .filter(|(r, _)| !is_frozen(*r))
            .map(|(_, d)| d.max(0.0))
            .sum();
        if total <= 0.0 || active_mass <= 0.0 {
            return;
        }
        let desired: Vec<f64> = demand
            .iter()
            .enumerate()
            .map(|(r, d)| {
                if is_frozen(r) {
                    self.shares[r]
                } else {
                    active_mass * d.max(0.0) / total
                }
            })
            .collect();
        let gap = desired
            .iter()
            .zip(&self.shares)
            .map(|(d, s)| (d - s).abs())
            .fold(0.0f64, f64::max);
        if gap <= self.deadband {
            return;
        }
        for (share, d) in self.shares.iter_mut().zip(&desired) {
            *share += (d - *share) * self.damping;
        }
        // Renormalize only the active mass: rounding drift must never
        // leak into (or out of) a frozen region's share.
        let active_sum: f64 = self
            .shares
            .iter()
            .enumerate()
            .filter(|(r, _)| !is_frozen(*r))
            .map(|(_, s)| s)
            .sum();
        if active_sum > 0.0 {
            for (r, share) in self.shares.iter_mut().enumerate() {
                if !is_frozen(r) {
                    *share *= active_mass / active_sum;
                }
            }
        }
    }

    /// The watts region `region` may allocate this round, given the
    /// effective (possibly browned-out) global budget. Cuts flow through
    /// immediately; only share redistribution is damped.
    #[must_use]
    pub fn region_budget(&self, region: usize, effective_w: f64) -> f64 {
        self.shares.get(region).copied().unwrap_or(0.0) * effective_w
    }
}

/// Trip parameters of the fleet's overshoot breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Relative overshoot of the effective budget tolerated before the
    /// breaker trips anyone.
    pub rel_tol: f64,
    /// Rounds a tripped machine holds the V/f floor.
    pub hold_rounds: u32,
    /// Release stagger stride: the k-th machine tripped in one round is
    /// released `k * stagger_rounds` later than the first, so a tripped
    /// cohort cannot re-inrush together (anti-cascade).
    pub stagger_rounds: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            rel_tol: 0.10,
            hold_rounds: 3,
            stagger_rounds: 2,
        }
    }
}

/// The power-integrity breaker at the feed: when measured fleet power
/// exceeds the effective budget beyond tolerance, the worst overshooting
/// machines are forced to their V/f floor for a hold, released staggered.
/// Deterministic — candidates are ordered by (power, id).
///
/// This is the physical backstop under the governors: a fleet whose
/// machines degraded to budget-*oblivious* local control (a flat root
/// crash during a brownout) overshoots, trips, and pays for it in
/// latency; a hierarchy that kept its machines centrally governed fits
/// the budget and never meets the breaker.
#[derive(Debug, Clone)]
pub struct OvershootBreaker {
    config: BreakerConfig,
    /// Per machine: first round it is free again (0 = not tripped).
    tripped_until: Vec<u64>,
    trips: u64,
}

impl OvershootBreaker {
    /// A breaker over `machines` machines.
    #[must_use]
    pub fn new(machines: usize, config: BreakerConfig) -> Self {
        OvershootBreaker {
            config,
            tripped_until: vec![0; machines],
            trips: 0,
        }
    }

    /// Total trip events so far.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// True if `machine` must run its V/f floor in `round`.
    #[must_use]
    pub fn is_tripped(&self, round: u64, machine: usize) -> bool {
        self.tripped_until.get(machine).is_some_and(|&until| round < until)
    }

    /// Feeds one round's measured per-machine powers. If the fleet
    /// overshoots `effective_w` beyond tolerance, trips machines —
    /// heaviest overshooters first — until the projected shed covers the
    /// excess. Returns how many machines were newly tripped.
    pub fn observe(&mut self, round: u64, effective_w: f64, power_w: &[f64]) -> usize {
        let total: f64 = power_w.iter().sum();
        let excess = total - effective_w * (1.0 + self.config.rel_tol);
        if excess <= 0.0 {
            return 0;
        }
        let fair = effective_w / power_w.len().max(1) as f64;
        let mut candidates: Vec<(usize, f64)> = power_w
            .iter()
            .copied()
            .enumerate()
            .filter(|&(m, p)| p > fair && !self.is_tripped(round + 1, m))
            .collect();
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        let mut shed = 0.0;
        let mut newly = 0usize;
        for (m, p) in candidates {
            if shed >= excess {
                break;
            }
            // Forcing the floor recovers most of a busy machine's draw.
            shed += p * 0.8;
            let hold = u64::from(self.config.hold_rounds)
                + newly as u64 * u64::from(self.config.stagger_rounds);
            self.tripped_until[m] = round + 1 + hold;
            self.trips += 1;
            newly += 1;
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(ladder: &mut DegradationLadder, rounds: &[(bool, bool)]) -> Vec<GovernorMode> {
        rounds
            .iter()
            .enumerate()
            .map(|(r, &(reach, tel))| ladder.observe_health(r as u64, reach, tel, true))
            .collect()
    }

    #[test]
    fn partition_demotes_to_local_after_tolerance() {
        let mut l = DegradationLadder::new(DegradationConfig::default());
        let modes = obs(&mut l, &[(true, true), (false, true), (false, true)]);
        assert_eq!(
            modes,
            vec![
                GovernorMode::Central,
                GovernorMode::Central,
                GovernorMode::LocalDepBurst
            ]
        );
        assert_eq!(l.transitions().len(), 1);
        assert_eq!(l.transitions()[0].reason, "partition");
    }

    #[test]
    fn sustained_loss_walks_the_whole_ladder_down() {
        let cfg = DegradationConfig {
            loss_tolerance: 2,
            ..DegradationConfig::default()
        };
        let mut l = DegradationLadder::new(cfg);
        let modes = obs(&mut l, &[(true, false); 5]);
        assert_eq!(modes[1], GovernorMode::LocalDepBurst, "loss demotes central");
        assert_eq!(
            *modes.last().unwrap(),
            GovernorMode::FallbackMax,
            "continued loss reaches the hardened fallback"
        );
        assert!(l.monotonicity_issue().is_none());
    }

    #[test]
    fn rejoin_is_hysteretic_one_rung_per_window() {
        let cfg = DegradationConfig {
            rejoin_threshold: 3,
            ..DegradationConfig::default()
        };
        let mut l = DegradationLadder::new(cfg);
        l.force_fallback(0, "crash-restart");
        assert_eq!(l.mode(), GovernorMode::FallbackMax);
        // Two healthy rounds are not enough; flapping resets the window.
        l.observe_health(1, true, true, true);
        l.observe_health(2, true, true, true);
        l.observe_health(3, false, true, true);
        assert_eq!(l.mode(), GovernorMode::FallbackMax);
        // A full window climbs exactly one rung...
        for r in 4..7 {
            l.observe_health(r, true, true, true);
        }
        assert_eq!(l.mode(), GovernorMode::LocalDepBurst);
        // ...and the next rung needs its own full window.
        l.observe_health(7, true, true, true);
        l.observe_health(8, true, true, true);
        assert_eq!(l.mode(), GovernorMode::LocalDepBurst);
        l.observe_health(9, true, true, true);
        assert_eq!(l.mode(), GovernorMode::Central);
        assert!(l.monotonicity_issue().is_none());
    }

    #[test]
    fn mode_sequence_is_a_pure_function_of_observations() {
        let pattern: Vec<(bool, bool)> = (0..40)
            .map(|r| (r % 7 != 0, r % 5 != 0))
            .collect();
        let mut a = DegradationLadder::new(DegradationConfig::default());
        let mut b = DegradationLadder::new(DegradationConfig::default());
        assert_eq!(obs(&mut a, &pattern), obs(&mut b, &pattern));
        assert_eq!(a.transitions(), b.transitions());
    }

    #[test]
    fn monotonicity_catches_a_forged_multi_rung_rejoin() {
        let mut l = DegradationLadder::new(DegradationConfig::default());
        l.transitions.push(Transition {
            round: 1,
            from: GovernorMode::FallbackMax,
            to: GovernorMode::Central,
            reason: "forged",
        });
        assert!(l.monotonicity_issue().unwrap().contains("multi-rung"));
    }

    fn ladder() -> FreqLadder {
        FreqLadder::paper_default()
    }

    #[test]
    fn allocation_respects_budget_and_ladders() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let views: Vec<MachineView<'_>> = (0..4)
            .map(|id| MachineView {
                id,
                ladder: &l,
                scaling_s: 0.8 + 0.1 * id as f64,
                fixed_s: 0.2,
                cores: 4,
            })
            .collect();
        let gov = CentralGovernor::new(200.0);
        let alloc = gov.allocate(&model, &views, 4);
        assert!(alloc.power_w <= alloc.available_w + 1e-9);
        for (f, v) in alloc.freqs.iter().zip(&views) {
            assert!(v.ladder.contains(*f), "{f:?} not on the ladder");
        }
        // The heaviest machine (largest scaling_s) gets at least as much
        // frequency as the lightest.
        assert!(alloc.freqs[3] >= alloc.freqs[0]);
    }

    #[test]
    fn huge_budget_pins_everyone_at_max_and_zero_budget_at_min() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let views: Vec<MachineView<'_>> = (0..3)
            .map(|id| MachineView {
                id,
                ladder: &l,
                scaling_s: 1.0,
                fixed_s: 0.1,
                cores: 4,
            })
            .collect();
        let rich = CentralGovernor::new(1e6).allocate(&model, &views, 3);
        assert!(rich.freqs.iter().all(|&f| f == l.max()));
        let poor = CentralGovernor::new(0.0).allocate(&model, &views, 3);
        assert!(poor.freqs.iter().all(|&f| f == l.min()));
    }

    #[test]
    fn unreachable_machines_reserve_their_budget_share() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let views = vec![MachineView {
            id: 0,
            ladder: &l,
            scaling_s: 1.0,
            fixed_s: 0.1,
            cores: 4,
        }];
        let gov = CentralGovernor::new(400.0);
        let alone = gov.allocate(&model, &views, 1);
        let shared = gov.allocate(&model, &views, 4);
        assert!((alone.available_w - 400.0).abs() < 1e-9);
        assert!((shared.available_w - 100.0).abs() < 1e-9);
        assert!(shared.freqs[0] <= alone.freqs[0]);
    }

    #[test]
    fn ties_go_to_the_lower_position_not_the_lower_id() {
        let model = PowerModel::haswell_22nm();
        let l = ladder();
        let notch = model.power(rung_freq(&l, 1), &[1.0; 4]).total()
            - model.power(l.min(), &[1.0; 4]).total();
        // Tied machines listed in descending id order: on a budget with
        // room for one notch, the first in `views` gets it. The second
        // set ties `-0.0` with `+0.0`, which `>` (unlike `total_cmp`)
        // treats as equal.
        for (scaling_s, fixed_s) in [
            ([1.0, 1.0, 1.0], [0.1, 0.1, 0.1]),
            ([-0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]),
        ] {
            let views: Vec<MachineView<'_>> = (0..3)
                .map(|pos| MachineView {
                    id: 2 - pos,
                    ladder: &l,
                    scaling_s: scaling_s[pos],
                    fixed_s: fixed_s[pos],
                    cores: 4,
                })
                .collect();
            let floor = CentralGovernor::new(0.0)
                .allocate(&model, &views, 3)
                .floor_w;
            let gov = CentralGovernor::new(floor + 1.5 * notch);
            let alloc = gov.allocate(&model, &views, 3);
            assert_eq!(alloc.freqs, vec![rung_freq(&l, 1), l.min(), l.min()]);
            assert_eq!(alloc, reference::allocate(&gov, &model, &views, 3));
        }
    }

    #[test]
    fn validate_rejects_nan_infinite_and_negative_views() {
        let l = ladder();
        let view = |scaling_s: f64, fixed_s: f64| MachineView {
            id: 5,
            ladder: &l,
            scaling_s,
            fixed_s,
            cores: 4,
        };
        assert!(view(1.0, 0.1).validate().is_ok());
        assert!(
            view(0.0, -0.0).validate().is_ok(),
            "signed zero is not negative"
        );
        for (s, f, field) in [
            (f64::NAN, 0.1, "scaling_s"),
            (1.0, f64::NAN, "fixed_s"),
            (f64::INFINITY, 0.1, "scaling_s"),
            (1.0, -1e-9, "fixed_s"),
            (-1.0, 0.1, "scaling_s"),
        ] {
            match view(s, f).validate() {
                Err(DepburstError::InvalidMachineView {
                    machine: 5,
                    field: got,
                    ..
                }) => {
                    assert_eq!(got, field);
                }
                other => panic!("({s}, {f}): {other:?}"),
            }
        }
    }

    mod oracle {
        use proptest::prelude::*;

        use super::super::*;

        /// Ladders drawn by index: the fleet's three, single-rung ones,
        /// a two-rung one and a coarse one.
        fn ladders() -> Vec<FreqLadder> {
            let l = |min, max, step| {
                FreqLadder::new(Freq::from_mhz(min), Freq::from_mhz(max), step).unwrap()
            };
            vec![
                FreqLadder::paper_default(),
                l(1000, 3500, 250),
                l(1250, 3750, 125),
                l(2000, 2000, 125),
                l(1000, 1000, 500),
                l(1500, 1625, 125),
                l(800, 4000, 800),
            ]
        }

        /// A service-time component: exact zeros of both signs, a coarse
        /// grid that makes ties common, or a continuous value.
        fn component(kind: u8, raw: u32) -> f64 {
            match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from(raw % 4) * 0.5e-3,
                _ => f64::from(raw) / f64::from(u32::MAX) * 5e-3,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The heap allocator makes the scan's exact decisions: same
            /// frequencies, and bit-identical power sums, over arbitrary
            /// views (ties, zeros of both signs, single-rung ladders, ids
            /// out of position order, no views at all) and budgets from
            /// zero to far above need.
            #[test]
            fn heap_allocation_matches_the_reference_scan(
                machines in proptest::collection::vec(
                    ((0usize..7, 1usize..9, 0usize..1000), (0u8..4, 0u32..=u32::MAX), (0u8..4, 0u32..=u32::MAX)),
                    0..40,
                ),
                budget in (0u8..4, 0.0..1.0f64),
                extra in 0usize..4,
            ) {
                let ladders = ladders();
                let views: Vec<MachineView<'_>> = machines
                    .iter()
                    .map(|&((ladder, cores, id), (sk, sr), (fk, fr))| MachineView {
                        id,
                        ladder: &ladders[ladder],
                        scaling_s: component(sk, sr),
                        fixed_s: component(fk, fr),
                        cores,
                    })
                    .collect();
                let fleet = views.len() + extra;
                let budget_w = match budget.0 {
                    0 => 0.0,
                    1 => 1e12,
                    _ => budget.1 * 60.0 * fleet as f64,
                };
                let model = PowerModel::haswell_22nm();
                let gov = CentralGovernor::new(budget_w);
                let fast = gov.allocate(&model, &views, fleet);
                let slow = reference::allocate(&gov, &model, &views, fleet);
                prop_assert_eq!(&fast.freqs, &slow.freqs);
                prop_assert_eq!(fast.power_w.to_bits(), slow.power_w.to_bits());
                prop_assert_eq!(fast.floor_w.to_bits(), slow.floor_w.to_bits());
                prop_assert_eq!(fast.available_w.to_bits(), slow.available_w.to_bits());
            }
        }
    }

    #[test]
    fn local_governor_honors_the_slowdown_bound_on_the_ladder() {
        let l = ladder();
        let view = MachineView {
            id: 0,
            ladder: &l,
            scaling_s: 0.9,
            fixed_s: 0.3,
            cores: 4,
        };
        let f = LocalGovernor::new(0.10).choose(&view);
        assert!(l.contains(f));
        let bound = view.service_time(l.max()) * 1.10;
        assert!(view.service_time(f) <= bound + 1e-12);
        // A zero bound forces the maximum.
        assert_eq!(LocalGovernor::new(0.0).choose(&view), l.max());
    }

    #[test]
    fn thermal_emergency_blocks_rejoin_but_never_demotes() {
        let cfg = DegradationConfig {
            rejoin_threshold: 2,
            ..DegradationConfig::default()
        };
        // A thermally-unhappy but connected machine stays where it is.
        let mut hot = DegradationLadder::new(cfg);
        for r in 0..6 {
            assert_eq!(
                hot.observe_health(r, true, true, false),
                GovernorMode::Central,
                "thermal distress alone must not demote"
            );
        }
        // After a partition heals, a thermal emergency holds the rejoin.
        let mut l = DegradationLadder::new(cfg);
        l.observe_health(0, false, true, true);
        l.observe_health(1, false, true, true);
        assert_eq!(l.mode(), GovernorMode::LocalDepBurst);
        for r in 2..8 {
            assert_eq!(
                l.observe_health(r, true, true, false),
                GovernorMode::LocalDepBurst,
                "rejoin streak must not accumulate while throttling"
            );
        }
        assert_eq!(l.observe_health(8, true, true, true), GovernorMode::LocalDepBurst);
        assert_eq!(l.observe_health(9, true, true, true), GovernorMode::Central);
        assert!(l.monotonicity_issue().is_none());
    }

    #[test]
    fn hierarchy_starts_equal_and_conserves_the_budget() {
        let h = HierarchicalGovernor::new(4);
        assert_eq!(h.regions(), 4);
        let total: f64 = (0..4).map(|r| h.region_budget(r, 240.0)).sum();
        assert!((total - 240.0).abs() < 1e-9);
        for r in 0..4 {
            assert!((h.region_budget(r, 240.0) - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hierarchy_rebalance_is_damped_and_freezes_when_root_is_down() {
        let mut h = HierarchicalGovernor::new(2);
        // Root down: shares frozen no matter the demand skew.
        h.rebalance_masked(&[10.0, 0.0], &[], true);
        assert!((h.shares()[0] - 0.5).abs() < 1e-12);
        // Root up: one step moves partway toward demand, not all the way.
        h.rebalance_masked(&[3.0, 1.0], &[], false);
        assert!(h.shares()[0] > 0.5 && h.shares()[0] < 0.75);
        let after_one = h.shares()[0];
        // Repeated steps converge toward the demand split.
        for _ in 0..50 {
            h.rebalance_masked(&[3.0, 1.0], &[], false);
        }
        assert!(h.shares()[0] > after_one);
        assert!((h.shares()[0] - 0.75).abs() < h.deadband + 1e-9);
        let total: f64 = h.shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_deadband_suppresses_small_swings() {
        let mut h = HierarchicalGovernor::new(2);
        h.rebalance_masked(&[1.01, 0.99], &[], false);
        assert!((h.shares()[0] - 0.5).abs() < 1e-12, "inside the deadband nothing moves");
    }

    #[test]
    fn breaker_ignores_fleets_inside_the_budget() {
        let mut b = OvershootBreaker::new(3, BreakerConfig::default());
        assert_eq!(b.observe(0, 300.0, &[100.0, 100.0, 100.0]), 0);
        assert_eq!(b.trips(), 0);
        assert!(!b.is_tripped(1, 0));
    }

    #[test]
    fn breaker_trips_heaviest_overshooters_with_staggered_release() {
        let cfg = BreakerConfig {
            rel_tol: 0.10,
            hold_rounds: 2,
            stagger_rounds: 3,
        };
        let mut b = OvershootBreaker::new(3, cfg);
        // 420 W against a 200 W budget: machine 2 then machine 1 trip.
        let newly = b.observe(5, 200.0, &[60.0, 160.0, 200.0]);
        assert_eq!(newly, 2);
        assert_eq!(b.trips(), 2);
        assert!(!b.is_tripped(6, 0), "the light machine rides through");
        assert!(b.is_tripped(6, 1) && b.is_tripped(6, 2));
        // First trip (machine 2) holds 2 rounds, second adds one stagger.
        assert!(!b.is_tripped(8, 2));
        assert!(b.is_tripped(8, 1));
        assert!(!b.is_tripped(11, 1));
    }

    #[test]
    fn breaker_is_deterministic_on_ties() {
        let mut a = OvershootBreaker::new(4, BreakerConfig::default());
        let mut b = OvershootBreaker::new(4, BreakerConfig::default());
        let powers = [150.0, 150.0, 150.0, 150.0];
        a.observe(0, 300.0, &powers);
        b.observe(0, 300.0, &powers);
        for m in 0..4 {
            assert_eq!(a.is_tripped(1, m), b.is_tripped(1, m));
        }
    }
}
