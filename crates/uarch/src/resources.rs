//! Low-level resource bookkeeping used by the pipeline timing model: per-cycle
//! bandwidth pools and age-ordered occupancy rings.
//!
//! Two pool implementations share identical allocation semantics:
//!
//! * [`SlotPool`] — the scalar single-resource reference, one deque per
//!   resource class. Kept as the differential-testing oracle and for
//!   out-of-tree users.
//! * [`LanePool`] — the pool the pipeline uses: all resource classes as
//!   *lanes* of one value, each lane a contiguous dense window anchored at
//!   its own pruning horizon. A shared prune advances every lane; a per-lane
//!   prune re-anchors one, so lanes with monotone request floors (commit,
//!   execution) stay dense however far they run ahead of the fetch clock.
//!
//! Both pools bound their bookkeeping: a dense window never grows past
//! [`MAX_DENSE_SPAN`] cycles, far-future allocations (a pathological latency
//! sum would previously balloon the dense deque unboundedly) spill into an
//! exact sparse overflow, and restore rejects payloads claiming absurd
//! horizons.

use bebop_isa::{StateError, StateReader, StateResult, StateWriter};
use std::collections::{BTreeMap, VecDeque};

/// Upper bound on the cycle span of a pool's *dense* window. Allocations
/// further than this past the pruning horizon are tracked exactly in a sparse
/// overflow map instead of growing the dense storage — one far-future cycle
/// (a pathological latency sum, or a corrupt restored checkpoint) must cost
/// one map entry, not a quarter-million zero-filled deque slots.
pub const MAX_DENSE_SPAN: u64 = 1 << 18;

/// Sanity bound on simultaneously tracked sparse far-future cycles per
/// resource class. Legitimate simulations keep at most an in-flight window's
/// worth of far-future allocations alive (the pipeline prunes each lane to
/// its monotone floor every 4096 committed µ-ops); crossing this bound means runaway
/// state and dies with a structured panic instead of creeping towards OOM.
pub const MAX_OVERFLOW_TRACKED: usize = 1 << 20;

/// Finds the earliest cycle `>= c` with a free slot given dense counts,
/// a sparse overflow, a width and the dense window base. This is the
/// specification walk: [`SlotPool`] uses it directly, and [`LanePool`]'s
/// hand-scheduled allocate path is held to it by the differential property
/// tests (`prop_lane_pool_matches_slot_pool_bank`).
///
/// Returns the chosen cycle; the caller increments the matching counter.
fn probe(
    base: u64,
    dense: impl Fn(u64) -> u16,
    dense_len: u64,
    far: &BTreeMap<u64, u16>,
    width: u16,
    mut c: u64,
) -> u64 {
    loop {
        let span = c.saturating_sub(base);
        let used = if span < MAX_DENSE_SPAN {
            if span < dense_len {
                dense(span)
            } else {
                0
            }
        } else {
            far.get(&c).copied().unwrap_or(0)
        };
        if used < width {
            return c;
        }
        c += 1;
    }
}

/// A per-cycle slot pool modelling a bandwidth-limited resource (issue ports of one
/// functional-unit class, rename slots, commit slots, …).
///
/// `allocate(t)` finds the earliest cycle `>= t` with a free slot, consumes it and
/// returns the cycle. Cycles below a moving horizon are pruned; allocations below
/// the horizon are clamped up to it (they can never be requested again by the
/// in-order processing loop, which only moves forward).
///
/// This is the scalar reference implementation; the pipeline itself uses the
/// lane-merged [`LanePool`], which is asserted allocation-for-allocation
/// identical to a bank of `SlotPool`s by the differential property tests.
#[derive(Debug, Clone)]
pub struct SlotPool {
    /// Slots available per cycle.
    width: u16,
    /// First cycle represented by `used[0]`.
    base: u64,
    /// Used-slot counts per cycle, starting at `base`; never longer than
    /// [`MAX_DENSE_SPAN`].
    used: VecDeque<u16>,
    /// Exact overflow for allocations at least [`MAX_DENSE_SPAN`] cycles past
    /// `base`: cycle → used count. Empty in every healthy steady state.
    far: BTreeMap<u64, u16>,
}

impl SlotPool {
    /// Creates a pool offering `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u16) -> Self {
        assert!(
            width > 0,
            "a slot pool must have at least one slot per cycle"
        );
        SlotPool {
            width,
            base: 0,
            used: VecDeque::new(),
            far: BTreeMap::new(),
        }
    }

    /// The per-cycle width of this pool.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Allocates one slot at the earliest cycle `>= cycle`, returning that cycle.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when the pool would track
    /// more than [`MAX_OVERFLOW_TRACKED`] far-future cycles — runaway state
    /// from a pathological configuration, caught before it eats the heap.
    pub fn allocate(&mut self, cycle: u64) -> u64 {
        let c = probe(
            self.base,
            |span| self.used[span as usize],
            self.used.len() as u64,
            &self.far,
            self.width,
            cycle.max(self.base),
        );
        let span = c - self.base;
        if span < MAX_DENSE_SPAN {
            let idx = span as usize;
            if idx >= self.used.len() {
                self.used.resize(idx + 1, 0);
            }
            self.used[idx] += 1;
        } else {
            *self.far.entry(c).or_insert(0) += 1;
            assert!(
                self.far.len() <= MAX_OVERFLOW_TRACKED,
                "resource: slot pool: {} far-future cycles tracked (allocation at cycle {c}, horizon {}) — runaway latency sum or corrupt state",
                self.far.len(),
                self.base
            );
        }
        c
    }

    /// Drops bookkeeping for all cycles strictly below `cycle`. Future allocations
    /// below `cycle` are clamped up to it.
    pub fn prune_below(&mut self, cycle: u64) {
        while self.base < cycle && !self.used.is_empty() {
            self.used.pop_front();
            self.base += 1;
        }
        if self.base < cycle {
            self.base = cycle;
        }
        // Far-future entries now inside the dense window migrate into it so
        // the two storages keep disjoint, exact coverage; entries below the
        // horizon are dropped like any pruned cycle.
        if !self.far.is_empty() {
            let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
            while let Some((&c, &u)) = self.far.first_key_value() {
                if c >= dense_end {
                    break;
                }
                self.far.pop_first();
                if c < self.base {
                    continue;
                }
                let idx = (c - self.base) as usize;
                if idx >= self.used.len() {
                    self.used.resize(idx + 1, 0);
                }
                self.used[idx] = u;
            }
        }
    }

    /// Number of cycles currently tracked (test/diagnostic aid).
    pub fn tracked_cycles(&self) -> usize {
        self.used.len() + self.far.len()
    }

    /// Serialises the pool's moving horizon and per-cycle usage counts for
    /// checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.base);
        w.len_of(self.used.len());
        for &u in &self.used {
            w.u16(u);
        }
        w.len_of(self.far.len());
        for (&c, &u) in &self.far {
            w.u64(c);
            w.u16(u);
        }
    }

    /// Restores state saved by [`SlotPool::save_state`] onto a freshly
    /// constructed pool of the identical width. Rejects payloads claiming
    /// absurd horizons (dense windows beyond [`MAX_DENSE_SPAN`], overflow
    /// beyond [`MAX_OVERFLOW_TRACKED`]) — a corrupt checkpoint must not
    /// balloon the pool it restores into.
    pub fn restore_state(&mut self, r: &mut StateReader) -> StateResult<()> {
        self.base = r.u64()?;
        let n = r.len_of(2)?;
        if n as u64 > MAX_DENSE_SPAN {
            return Err(StateError("slot pool dense span exceeds bound"));
        }
        self.used.clear();
        for _ in 0..n {
            let u = r.u16()?;
            if u > self.width {
                return Err(StateError("slot pool usage exceeds width"));
            }
            self.used.push_back(u);
        }
        let far_n = r.len_of(10)?;
        if far_n > MAX_OVERFLOW_TRACKED {
            return Err(StateError("slot pool overflow count exceeds bound"));
        }
        self.far.clear();
        let mut prev: Option<u64> = None;
        for _ in 0..far_n {
            let c = r.u64()?;
            let u = r.u16()?;
            if prev.is_some_and(|p| c <= p) {
                return Err(StateError("slot pool overflow cycles not ascending"));
            }
            if c < self.base.saturating_add(MAX_DENSE_SPAN) {
                return Err(StateError("slot pool overflow cycle inside dense span"));
            }
            if u == 0 || u > self.width {
                return Err(StateError("slot pool overflow usage out of range"));
            }
            self.far.insert(c, u);
            prev = Some(c);
        }
        Ok(())
    }

    /// Validates the pool's conservation invariant: no cycle may have more
    /// slots consumed than the pool's width, and the tracked window must stay
    /// within its growth bounds.
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_conservation(&self, name: &str) {
        for (i, &u) in self.used.iter().enumerate() {
            assert!(
                u <= self.width,
                "simcheck: slot pool '{name}': cycle {} uses {u} of {} slots",
                self.base + i as u64,
                self.width
            );
        }
        for (&c, &u) in &self.far {
            assert!(
                u > 0 && u <= self.width,
                "simcheck: slot pool '{name}': far cycle {c} uses {u} of {} slots",
                self.width
            );
        }
        assert!(
            self.used.len() as u64 <= MAX_DENSE_SPAN && self.far.len() <= MAX_OVERFLOW_TRACKED,
            "simcheck: slot pool '{name}': tracked window ({} dense + {} far) exceeds growth bounds",
            self.used.len(),
            self.far.len()
        );
    }
}

/// The resource classes sharing one [`LanePool`]. Each lane is an independent
/// per-cycle bandwidth budget; the enum's discriminants index the pool's
/// lane windows and fix the checkpoint serialisation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Rename/decode slots (front-end width).
    Rename = 0,
    /// Out-of-order issue slots (issue width).
    Issue = 1,
    /// Simple-ALU functional units.
    Alu = 2,
    /// Integer multiply/divide units.
    MulDiv = 3,
    /// FP add units.
    Fp = 4,
    /// FP multiply/divide units.
    FpMulDiv = 5,
    /// Load ports.
    Load = 6,
    /// Store ports.
    Store = 7,
    /// EOLE early-execution slots.
    Early = 8,
    /// EOLE late-execution slots.
    Late = 9,
    /// Commit slots (retirement width).
    Commit = 10,
}

/// Number of lanes in a [`LanePool`].
pub const NUM_POOL_LANES: usize = 11;

impl Lane {
    /// Every lane, in discriminant (and serialisation) order.
    pub const ALL: [Lane; NUM_POOL_LANES] = [
        Lane::Rename,
        Lane::Issue,
        Lane::Alu,
        Lane::MulDiv,
        Lane::Fp,
        Lane::FpMulDiv,
        Lane::Load,
        Lane::Store,
        Lane::Early,
        Lane::Late,
        Lane::Commit,
    ];

    /// Diagnostic name used in simcheck/panic messages.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Rename => "rename",
            Lane::Issue => "issue",
            Lane::Alu => "alu",
            Lane::MulDiv => "muldiv",
            Lane::Fp => "fp",
            Lane::FpMulDiv => "fpmuldiv",
            Lane::Load => "load",
            Lane::Store => "store",
            Lane::Early => "early",
            Lane::Late => "late",
            Lane::Commit => "commit",
        }
    }
}

/// Rows a lane's dense window grows by when an allocation lands past its
/// materialized end (capped at [`MAX_DENSE_SPAN`]). Chunked growth keeps the
/// hot allocate path on materialized rows: the rows past the old end are
/// zero-filled, so the next allocations find them by the plain scan instead
/// of taking the growth path one row at a time.
const GROW_ROWS: usize = 512;

/// How many dead (pruned) rows a lane's dense storage tolerates before
/// compacting. Compaction copies the live window to the front, so amortised
/// prune cost stays O(1) per pruned cycle while the storage never holds more
/// than `max(live, COMPACT_SLACK)` dead rows.
const COMPACT_SLACK: usize = 4096;

/// Deterministic event counts of one [`LanePool`] lane. They are incremented
/// on the pool's cold paths only, count events since the pool was built (they
/// are not checkpointed), and repeat bit for bit for the same request
/// sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounters {
    /// Allocations recorded in the sparse far-future overflow map.
    pub overflow_bumps: u64,
    /// Full overflow cycles stepped over while probing for a free one.
    pub overflow_probe_steps: u64,
    /// Times the dense window was extended.
    pub dense_growths: u64,
    /// Times the dead prefix of the dense storage was compacted away.
    pub compactions: u64,
}

/// One lane of a [`LanePool`]: a dense window anchored at the lane's own
/// pruning horizon plus the exact sparse overflow past it — the same
/// representation as a [`SlotPool`], with a dead prefix compacted lazily.
#[derive(Debug, Clone)]
struct LaneWindow {
    /// Slots available per cycle.
    width: u16,
    /// The lane's horizon and first live cycle: `used[head]` holds its count.
    base: u64,
    /// Dead rows at the front of `used` awaiting compaction.
    head: usize,
    /// Dense per-cycle counts: cycle `c` lives at `used[head + (c - base)]`.
    /// Never more than [`MAX_DENSE_SPAN`] live rows.
    used: Vec<u16>,
    /// Exact overflow for cycles at least [`MAX_DENSE_SPAN`] past `base`:
    /// cycle → used count. Only a pathological latency sum reaches it.
    far: BTreeMap<u64, u16>,
    counters: LaneCounters,
}

impl LaneWindow {
    fn new(width: u16) -> Self {
        LaneWindow {
            width,
            base: 0,
            head: 0,
            used: Vec::new(),
            far: BTreeMap::new(),
            counters: LaneCounters::default(),
        }
    }

    /// Live dense rows (cycles) currently stored.
    fn live_rows(&self) -> usize {
        self.used.len() - self.head
    }

    /// Allocates one slot at the earliest free cycle `>= cycle`.
    #[inline]
    fn allocate(&mut self, lane: Lane, cycle: u64) -> u64 {
        let floor = cycle.max(self.base);
        let span = floor - self.base;
        let live = self.live_rows();
        if span < live as u64 {
            // Hot path: a contiguous scan over the materialized dense rows.
            // Far coverage starts at `MAX_DENSE_SPAN` — beyond every
            // materialized row — so the overflow map never needs consulting
            // here.
            let start = self.head + span as usize;
            let width = self.width;
            if let Some(off) = self.used[start..].iter().position(|&u| u < width) {
                self.used[start + off] += 1;
                return floor + off as u64;
            }
            return self.allocate_unmaterialized(lane, self.base + live as u64);
        }
        self.allocate_unmaterialized(lane, floor)
    }

    /// Allocation continuation for cycles past the materialized dense rows:
    /// still inside the dense span they are untracked and therefore free;
    /// past it the sparse overflow map is probed. Produces exactly the cycle
    /// the generic [`probe`] walk would.
    fn allocate_unmaterialized(&mut self, lane: Lane, floor: u64) -> u64 {
        let span = floor - self.base;
        if span < MAX_DENSE_SPAN {
            let row = self.dense_row(span);
            self.used[row] += 1;
            return floor;
        }
        let mut c = floor;
        while self.far.get(&c).copied().unwrap_or(0) >= self.width {
            c += 1;
            self.counters.overflow_probe_steps += 1;
        }
        *self.far.entry(c).or_insert(0) += 1;
        self.counters.overflow_bumps += 1;
        assert!(
            self.far.len() <= MAX_OVERFLOW_TRACKED,
            "resource: lane pool '{}': {} far-future cycles tracked (allocation at cycle {c}, horizon {}) — runaway latency sum or corrupt state",
            lane.name(),
            self.far.len(),
            self.base
        );
        c
    }

    /// Index into `used` of the row `span` cycles past `base`, growing the
    /// window by at least [`GROW_ROWS`] rows (capped at [`MAX_DENSE_SPAN`])
    /// when it is not materialized yet. Callers guarantee
    /// `span < MAX_DENSE_SPAN`.
    fn dense_row(&mut self, span: u64) -> usize {
        let row = self.head + span as usize;
        if row >= self.used.len() {
            let live = (span as usize + 1)
                .max(self.live_rows() + GROW_ROWS)
                .min(MAX_DENSE_SPAN as usize);
            self.used.resize(self.head + live, 0);
            self.counters.dense_growths += 1;
        }
        row
    }

    /// Raises the lane's horizon to `cycle`: rows below it are dropped,
    /// overflow entries the advanced window now covers migrate into it, and
    /// a dominating dead prefix is compacted away.
    fn prune_below(&mut self, cycle: u64) {
        if cycle <= self.base {
            return;
        }
        let advance = (cycle - self.base).min(self.live_rows() as u64) as usize;
        self.head += advance;
        self.base = cycle;
        // Migrate far entries that the advanced horizon pulled inside the
        // dense window, so dense and far coverage stay disjoint and exact;
        // entries below the horizon are dropped like any pruned cycle.
        if !self.far.is_empty() {
            let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
            while let Some((&c, &u)) = self.far.first_key_value() {
                if c >= dense_end {
                    break;
                }
                self.far.pop_first();
                if c < self.base {
                    continue;
                }
                let row = self.dense_row(c - self.base);
                self.used[row] = u;
            }
        }
        // Compact once the dead prefix dominates: amortised O(1) per pruned
        // cycle, bounded dead space.
        if self.head >= self.live_rows().max(COMPACT_SLACK) {
            self.used.drain(..self.head);
            self.head = 0;
            self.counters.compactions += 1;
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.base);
        w.len_of(self.live_rows());
        for &u in &self.used[self.head..] {
            w.u16(u);
        }
        w.len_of(self.far.len());
        for (&c, &u) in &self.far {
            w.u64(c);
            w.u16(u);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader) -> StateResult<()> {
        self.base = r.u64()?;
        let rows = r.len_of(2)?;
        if rows as u64 > MAX_DENSE_SPAN {
            return Err(StateError("lane pool dense span exceeds bound"));
        }
        self.head = 0;
        self.used.clear();
        self.used.reserve(rows);
        for _ in 0..rows {
            let u = r.u16()?;
            if u > self.width {
                return Err(StateError("lane pool usage exceeds lane width"));
            }
            self.used.push(u);
        }
        let n = r.len_of(10)?;
        if n > MAX_OVERFLOW_TRACKED {
            return Err(StateError("lane pool overflow count exceeds bound"));
        }
        self.far.clear();
        let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let c = r.u64()?;
            let u = r.u16()?;
            if prev.is_some_and(|p| c <= p) {
                return Err(StateError("lane pool overflow cycles not ascending"));
            }
            if c < dense_end {
                return Err(StateError("lane pool overflow cycle inside dense span"));
            }
            if u == 0 || u > self.width {
                return Err(StateError("lane pool overflow usage out of range"));
            }
            self.far.insert(c, u);
            prev = Some(c);
        }
        Ok(())
    }

    #[cfg(feature = "simcheck")]
    fn check_conservation(&self, lane: Lane) {
        let name = lane.name();
        for (i, &u) in self.used[self.head..].iter().enumerate() {
            assert!(
                u <= self.width,
                "simcheck: lane pool '{name}': cycle {} uses {u} of {} slots",
                self.base + i as u64,
                self.width
            );
        }
        let dense_end = self.base.saturating_add(MAX_DENSE_SPAN);
        for (&c, &u) in &self.far {
            assert!(
                u > 0 && u <= self.width,
                "simcheck: lane pool '{name}': far cycle {c} uses {u} of {} slots",
                self.width
            );
            assert!(
                c >= dense_end,
                "simcheck: lane pool '{name}': far cycle {c} lies inside the dense span ending at {dense_end}"
            );
        }
        assert!(
            self.live_rows() as u64 <= MAX_DENSE_SPAN && self.far.len() <= MAX_OVERFLOW_TRACKED,
            "simcheck: lane pool '{name}': tracked window ({} dense + {} far) exceeds growth bounds",
            self.live_rows(),
            self.far.len()
        );
        assert!(
            self.head < self.live_rows().max(COMPACT_SLACK),
            "simcheck: lane pool '{name}': {} dead rows exceed the compaction slack",
            self.head
        );
    }
}

/// All of the pipeline's per-cycle bandwidth resources in one pool: one
/// [`Lane`] per resource class, each with its own dense window anchored at
/// its own pruning horizon and its own sparse overflow for far-future
/// allocations. [`LanePool::prune_below`] advances every lane;
/// [`LanePool::prune_lane_below`] advances one — the lanes whose request
/// streams have monotone floors trail them (commit trails `last_commit`, the
/// execution lanes trail the ROB's oldest release), so their windows stay
/// dense even when commit runs far ahead of the decoupled fetch clock.
///
/// The *generation* counts [`LanePool::prune_below`] operations: it stamps
/// every checkpoint payload, and a restored pool resumes with the same
/// windows and generation a continuous run would carry, so window-shape
/// divergence after resume is detectable rather than silent.
///
/// Allocation semantics are identical to one [`SlotPool`] per lane — the
/// differential property tests in `tests/integration_properties.rs` assert
/// exactly that, allocation for allocation.
#[derive(Debug, Clone)]
pub struct LanePool {
    /// Per-lane windows, indexed by the [`Lane`] discriminant.
    lanes: [LaneWindow; NUM_POOL_LANES],
    /// Number of shared prune operations performed (the pool's *generation*).
    generation: u64,
}

impl LanePool {
    /// Creates a pool with the given per-lane widths.
    ///
    /// # Panics
    ///
    /// Panics if any width is zero.
    pub fn new(widths: [u16; NUM_POOL_LANES]) -> Self {
        assert!(
            widths.iter().all(|&w| w > 0),
            "every lane of a lane pool needs at least one slot per cycle"
        );
        LanePool {
            lanes: widths.map(LaneWindow::new),
            generation: 0,
        }
    }

    /// The per-cycle width of `lane`.
    pub fn width(&self, lane: Lane) -> u16 {
        self.lanes[lane as usize].width
    }

    /// Number of shared prune operations performed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of cycles `lane` currently tracks across its dense window and
    /// its overflow (test/diagnostic aid).
    pub fn tracked_cycles(&self, lane: Lane) -> usize {
        let w = &self.lanes[lane as usize];
        w.live_rows() + w.far.len()
    }

    /// Number of far-future cycles in `lane`'s sparse overflow
    /// (test/diagnostic aid).
    pub fn overflow_cycles(&self, lane: Lane) -> usize {
        let w = &self.lanes[lane as usize];
        w.far.len()
    }

    /// Per-lane event counters, indexed by the [`Lane`] discriminant.
    pub fn counters(&self) -> [LaneCounters; NUM_POOL_LANES] {
        std::array::from_fn(|li| self.lanes[li].counters)
    }

    /// Allocates one `lane` slot at the earliest cycle `>= cycle`, returning
    /// that cycle — bit-identical to `SlotPool::allocate` on a pool of the
    /// same width, horizon and usage history.
    ///
    /// # Panics
    ///
    /// Panics with a structured `resource:` reason when the lane would track
    /// more than [`MAX_OVERFLOW_TRACKED`] far-future cycles.
    #[inline]
    pub fn allocate(&mut self, lane: Lane, cycle: u64) -> u64 {
        self.lanes[lane as usize].allocate(lane, cycle)
    }

    /// Allocates one `lane` slot per element of `out`, all requesting `cycle`,
    /// exactly as that many successive [`LanePool::allocate`] calls would, and
    /// writes each allocation's cycle to `out`. The common case — a fetch
    /// group's rename slots, whose width equals the front width — fills one
    /// fresh row with a single counter update.
    pub fn allocate_group(&mut self, lane: Lane, cycle: u64, out: &mut [u64]) {
        let w = &mut self.lanes[lane as usize];
        let floor = cycle.max(w.base);
        let span = floor - w.base;
        let n = u16::try_from(out.len()).ok().filter(|&n| n <= w.width);
        if let Some(n) = n {
            if span < MAX_DENSE_SPAN {
                let row = w.dense_row(span);
                let slot = &mut w.used[row];
                if *slot + n <= w.width {
                    *slot += n;
                    out.fill(floor);
                    return;
                }
            }
        }
        for o in out.iter_mut() {
            *o = w.allocate(lane, cycle);
        }
    }

    /// Drops bookkeeping for all cycles strictly below `cycle` in every lane
    /// whose horizon is lower. Future allocations below `cycle` are clamped
    /// up to it. Bumps the generation.
    pub fn prune_below(&mut self, cycle: u64) {
        self.generation += 1;
        for w in &mut self.lanes {
            w.prune_below(cycle);
        }
    }

    /// Raises one lane's pruning horizon to `cycle`, exactly like
    /// `SlotPool::prune_below` on the lane's reference pool: its dense window
    /// re-anchors there and its bookkeeping below `cycle` is dropped. Used
    /// for lanes whose request stream has a monotone floor — the commit lane
    /// never requests below `last_commit`, the execution lanes never below
    /// the ROB's oldest outstanding release — so their windows stay dense
    /// even when fetch decouples far behind commit.
    pub fn prune_lane_below(&mut self, lane: Lane, cycle: u64) {
        self.lanes[lane as usize].prune_below(cycle);
    }

    /// Serialises the pool's generation and every lane's horizon, dense
    /// window and overflow for checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.generation);
        for lane in &self.lanes {
            lane.save_state(w);
        }
    }

    /// Restores state saved by [`LanePool::save_state`] onto a freshly built
    /// pool of identical widths. Rejects corrupt payloads lane by lane: usage
    /// beyond the lane's width, dense windows beyond [`MAX_DENSE_SPAN`],
    /// overflow counts beyond [`MAX_OVERFLOW_TRACKED`], or overflow cycles
    /// that are not ascending or belong in the dense window.
    pub fn restore_state(&mut self, r: &mut StateReader) -> StateResult<()> {
        self.generation = r.u64()?;
        for lane in &mut self.lanes {
            lane.restore_state(r)?;
        }
        Ok(())
    }

    /// Validates the pool's conservation invariant lane by lane — no cycle may
    /// consume more slots than its lane's width, overflow cycles lie past the
    /// lane's dense span — and that every lane's window respects the growth
    /// bounds ([`MAX_DENSE_SPAN`] dense rows, [`MAX_OVERFLOW_TRACKED`]
    /// overflow entries, dead prefix within the compaction slack).
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_conservation(&self) {
        for (lane, w) in Lane::ALL.iter().zip(&self.lanes) {
            w.check_conservation(*lane);
        }
    }
}

/// An age-ordered occupancy ring modelling a finite buffer (ROB, IQ, LQ, SQ)
/// allocated at one pipeline stage and released at another.
///
/// When entry `i` is allocated, the allocation cannot happen before the release
/// cycle of entry `i - capacity`; `constrain` returns that lower bound and `push`
/// records the release cycle of the new entry. For fetch-group-batched
/// processing, [`OccupancyRing::release_floor_after`] answers the same
/// question for the *k*-th allocation of a group against the pre-group state,
/// so a whole group's floors can be gathered before any entry is pushed.
#[derive(Debug, Clone)]
pub struct OccupancyRing {
    capacity: usize,
    releases: VecDeque<u64>,
}

impl OccupancyRing {
    /// Creates a ring for a structure with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "structure capacity must be non-zero");
        OccupancyRing {
            capacity,
            releases: VecDeque::with_capacity(capacity),
        }
    }

    /// The structure capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the earliest cycle at which a new entry may be allocated, given that
    /// the allocation wants to happen at `cycle`: if the structure is full, the
    /// oldest outstanding entry must have been released first.
    pub fn constrain(&self, cycle: u64) -> u64 {
        cycle.max(self.release_floor_after(0))
    }

    /// The release-cycle floor the `pushes_since`-th upcoming allocation must
    /// respect, measured against the current ring state: with `k` entries
    /// pushed (and, when full, popped) since this state, the oldest
    /// outstanding release is the entry `len + k - capacity` positions from
    /// the front — or there is no floor (0) while the ring still has room.
    ///
    /// `pushes_since` must be smaller than the capacity: beyond that the
    /// floor would depend on the releases of the entries pushed in between,
    /// which this state cannot know. The pipeline batches at most one fetch
    /// group (≤ front width ≤ any structure capacity) per gather.
    pub fn release_floor_after(&self, pushes_since: usize) -> u64 {
        debug_assert!(pushes_since < self.capacity);
        let virt = self.releases.len() + pushes_since;
        if virt < self.capacity {
            0
        } else {
            self.releases[virt - self.capacity]
        }
    }

    /// Records that the entry just allocated will be released at `release_cycle`.
    pub fn push(&mut self, release_cycle: u64) {
        if self.releases.len() == self.capacity {
            self.releases.pop_front();
        }
        self.releases.push_back(release_cycle);
    }

    /// Records a whole fetch group's release cycles in allocation order —
    /// equivalent to that many [`OccupancyRing::push`] calls, paired with the
    /// floors gathered via [`OccupancyRing::release_floor_after`] before the
    /// group was processed.
    pub fn push_group(&mut self, release_cycles: &[u64]) {
        for &c in release_cycles {
            self.push(c);
        }
    }

    /// Clears all occupancy (used on pipeline flushes: squashed entries release
    /// their slots immediately).
    pub fn clear(&mut self) {
        self.releases.clear();
    }

    /// Serialises the outstanding release cycles for checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.len_of(self.releases.len());
        for &c in &self.releases {
            w.u64(c);
        }
    }

    /// Restores state saved by [`OccupancyRing::save_state`] onto a freshly
    /// constructed ring of the identical capacity.
    pub fn restore_state(&mut self, r: &mut StateReader) -> StateResult<()> {
        let n = r.len_of(8)?;
        if n > self.capacity {
            return Err(StateError("occupancy ring overfilled"));
        }
        self.releases.clear();
        for _ in 0..n {
            self.releases.push_back(r.u64()?);
        }
        Ok(())
    }

    /// Validates that the recorded release cycles are age-ordered
    /// (non-decreasing): entries of an in-order-released structure (ROB, LQ,
    /// SQ) free their slots in allocation order, so a younger entry releasing
    /// before an older one means the ring's bookkeeping leaked.
    ///
    /// # Panics
    ///
    /// Panics with a structured `simcheck:` reason on violation. Compiled only
    /// under the `simcheck` feature.
    #[cfg(feature = "simcheck")]
    pub fn check_monotone(&self, name: &str) {
        let mut prev = 0u64;
        for (i, &c) in self.releases.iter().enumerate() {
            assert!(
                c >= prev,
                "simcheck: occupancy ring '{name}': release {i} at cycle {c} precedes {prev}"
            );
            prev = c;
        }
        assert!(
            self.releases.len() <= self.capacity,
            "simcheck: occupancy ring '{name}': {} entries exceed capacity {}",
            self.releases.len(),
            self.capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_pool_respects_width() {
        let mut p = SlotPool::new(2);
        assert_eq!(p.allocate(10), 10);
        assert_eq!(p.allocate(10), 10);
        assert_eq!(p.allocate(10), 11);
        assert_eq!(p.allocate(10), 11);
        assert_eq!(p.allocate(10), 12);
    }

    #[test]
    fn slot_pool_allocates_forward_only() {
        let mut p = SlotPool::new(1);
        assert_eq!(p.allocate(5), 5);
        assert_eq!(p.allocate(3), 3);
        assert_eq!(p.allocate(3), 4);
        assert_eq!(p.allocate(3), 6);
    }

    #[test]
    fn slot_pool_prunes() {
        let mut p = SlotPool::new(1);
        for c in 0..100 {
            p.allocate(c);
        }
        assert!(p.tracked_cycles() >= 100);
        p.prune_below(90);
        assert!(p.tracked_cycles() <= 10);
        // Allocations below the horizon are clamped up.
        assert_eq!(p.allocate(0), 100);
    }

    #[test]
    fn slot_pool_far_future_allocation_is_bounded_and_exact() {
        // One absurdly far allocation must cost one overflow entry, not a
        // MAX_DENSE_SPAN-sized dense resize (the pre-fix behaviour).
        let mut p = SlotPool::new(2);
        let far = 10 * MAX_DENSE_SPAN;
        assert_eq!(p.allocate(far), far);
        assert_eq!(p.allocate(far), far);
        assert_eq!(p.allocate(far), far + 1);
        assert!(
            p.tracked_cycles() <= 3,
            "far-future cycles must be tracked sparsely, got {}",
            p.tracked_cycles()
        );
        // Near allocations still use the dense window.
        assert_eq!(p.allocate(5), 5);
        // Pruning past the far cluster drops it; up to it, keeps it exact.
        p.prune_below(far + 1);
        assert_eq!(p.allocate(0), far + 1);
        assert_eq!(p.allocate(0), far + 2);
    }

    #[test]
    fn slot_pool_prune_migrates_far_entries_into_dense_window() {
        let mut p = SlotPool::new(1);
        let far = MAX_DENSE_SPAN + 10;
        assert_eq!(p.allocate(far), far);
        // After pruning, `far` sits inside the dense window; its usage must
        // survive the migration so the next allocation spills past it.
        p.prune_below(far - 5);
        assert_eq!(p.allocate(far), far + 1);
    }

    #[test]
    fn slot_pool_restore_rejects_absurd_horizons() {
        use bebop_isa::StateWriter;
        // Dense span beyond the bound.
        let mut w = StateWriter::new();
        w.u64(0);
        w.len_of(MAX_DENSE_SPAN as usize + 1);
        let bytes = w.finish();
        let mut p = SlotPool::new(2);
        assert!(p.restore_state(&mut StateReader::new(&bytes)).is_err());
        // Overflow cycle claimed inside the dense span.
        let mut w = StateWriter::new();
        w.u64(100);
        w.len_of(0);
        w.len_of(1);
        w.u64(150); // < base + MAX_DENSE_SPAN
        w.u16(1);
        let bytes = w.finish();
        let mut p = SlotPool::new(2);
        assert!(p.restore_state(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic]
    fn zero_width_pool_panics() {
        let _ = SlotPool::new(0);
    }

    fn widths() -> [u16; NUM_POOL_LANES] {
        [8, 6, 4, 1, 2, 2, 2, 1, 8, 8, 8]
    }

    /// Runs the per-lane conservation checks when `simcheck` compiles them in.
    fn check(p: &LanePool) {
        #[cfg(feature = "simcheck")]
        p.check_conservation();
        #[cfg(not(feature = "simcheck"))]
        let _ = p;
    }

    #[test]
    fn lane_pool_matches_slot_pool_per_lane() {
        let mut lp = LanePool::new(widths());
        let mut refs: Vec<SlotPool> = widths().iter().map(|&w| SlotPool::new(w)).collect();
        // A deterministic mixed request pattern across all lanes.
        let mut c = 0u64;
        for i in 0..2000u64 {
            let lane = Lane::ALL[(i % NUM_POOL_LANES as u64) as usize];
            let req = c + (i * 7) % 23;
            assert_eq!(
                lp.allocate(lane, req),
                refs[lane as usize].allocate(req),
                "lane {} request {req} diverged",
                lane.name()
            );
            if i % 97 == 0 {
                c += 11;
                lp.prune_below(c);
                for r in refs.iter_mut() {
                    r.prune_below(c);
                }
            }
            if i % 131 == 0 {
                lp.prune_lane_below(Lane::Commit, c + 50);
                refs[Lane::Commit as usize].prune_below(c + 50);
            }
            check(&lp);
        }
    }

    #[test]
    fn lane_pool_group_allocation_equals_repeated_allocate() {
        let mut a = LanePool::new(widths());
        let mut b = LanePool::new(widths());
        let mut out = [0u64; 8];
        a.allocate_group(Lane::Rename, 40, &mut out);
        let expect: Vec<u64> = (0..8).map(|_| b.allocate(Lane::Rename, 40)).collect();
        assert_eq!(&out[..], &expect[..]);
        // A second group at the same cycle spills exactly like repeated calls.
        let mut out2 = [0u64; 8];
        a.allocate_group(Lane::Rename, 40, &mut out2);
        let expect2: Vec<u64> = (0..8).map(|_| b.allocate(Lane::Rename, 40)).collect();
        assert_eq!(&out2[..], &expect2[..]);
    }

    #[test]
    fn lane_pool_generation_counts_prunes() {
        let mut p = LanePool::new(widths());
        assert_eq!(p.generation(), 0);
        p.allocate(Lane::Alu, 10);
        p.prune_below(5);
        p.prune_below(8);
        assert_eq!(p.generation(), 2);
    }

    #[test]
    fn lane_pool_save_restore_round_trip() {
        let mut p = LanePool::new(widths());
        for i in 0..500u64 {
            p.allocate(Lane::ALL[(i % 11) as usize], i / 3);
        }
        p.allocate(Lane::Commit, 5 * MAX_DENSE_SPAN);
        p.prune_below(40);
        p.prune_lane_below(Lane::Commit, 60);
        let mut w = StateWriter::new();
        p.save_state(&mut w);
        let bytes = w.finish();
        let mut q = LanePool::new(widths());
        q.restore_state(&mut StateReader::new(&bytes)).unwrap();
        check(&q);
        assert_eq!(q.generation(), p.generation());
        for lane in Lane::ALL {
            assert_eq!(q.tracked_cycles(lane), p.tracked_cycles(lane));
        }
        assert_eq!(q.overflow_cycles(Lane::Commit), 1);
        // Identical future behaviour.
        for i in 0..200u64 {
            let lane = Lane::ALL[(i % 11) as usize];
            assert_eq!(p.allocate(lane, 45 + i / 5), q.allocate(lane, 45 + i / 5));
        }
    }

    #[test]
    fn lane_pool_restore_rejects_absurd_horizons() {
        // Every lane before `bad` restores an empty window at horizon 1000;
        // `bad` carries the corrupt payload written by `corrupt`.
        fn payload(bad: Lane, corrupt: impl Fn(&mut StateWriter)) -> Vec<u8> {
            let mut w = StateWriter::new();
            w.u64(0); // generation
            for lane in Lane::ALL {
                if lane == bad {
                    corrupt(&mut w);
                    break;
                }
                w.u64(1000); // horizon
                w.len_of(0); // dense rows
                w.len_of(0); // overflow entries
            }
            w.finish()
        }
        let rejects = |bytes: Vec<u8>| {
            let mut p = LanePool::new(widths());
            p.restore_state(&mut StateReader::new(&bytes)).is_err()
        };
        for lane in [Lane::Rename, Lane::Load, Lane::Commit] {
            let width = widths()[lane as usize];
            // Dense span beyond the bound.
            assert!(rejects(payload(lane, |w| {
                w.u64(0);
                w.len_of(MAX_DENSE_SPAN as usize + 1);
            })));
            // Usage beyond the lane's width.
            assert!(rejects(payload(lane, |w| {
                w.u64(0);
                w.len_of(1);
                w.u16(width + 1);
            })));
            // Overflow cycle inside the lane's own dense span.
            assert!(rejects(payload(lane, |w| {
                w.u64(5000);
                w.len_of(0);
                w.len_of(1);
                w.u64(5000 + MAX_DENSE_SPAN - 1);
                w.u16(1);
            })));
            // Overflow cycles out of order.
            assert!(rejects(payload(lane, |w| {
                w.u64(0);
                w.len_of(0);
                w.len_of(2);
                w.u64(3 * MAX_DENSE_SPAN);
                w.u16(1);
                w.u64(2 * MAX_DENSE_SPAN);
                w.u16(1);
            })));
            // Overflow count beyond the bound.
            assert!(rejects(payload(lane, |w| {
                w.u64(0);
                w.len_of(0);
                w.len_of(MAX_OVERFLOW_TRACKED + 1);
            })));
        }
    }

    #[test]
    fn lane_pool_lane_runs_ahead_of_the_shared_prune_without_spilling() {
        // The commit lane's horizon and requests run many dense spans past
        // the shared prune (fetch decoupled far behind commit): anchored at
        // its own horizon, the lane stays dense and exact.
        let mut lp = LanePool::new(widths());
        let mut r = SlotPool::new(widths()[Lane::Commit as usize]);
        let ahead = 5 * MAX_DENSE_SPAN;
        for step in 0..3000u64 {
            let h = ahead + step * 40;
            if step % 50 == 0 {
                lp.prune_below(step);
                r.prune_below(step);
                lp.prune_lane_below(Lane::Commit, h);
                r.prune_below(h);
            }
            let req = h + (step * 7) % 300;
            assert_eq!(
                lp.allocate(Lane::Commit, req),
                r.allocate(req),
                "step {step}"
            );
            assert_eq!(lp.allocate(Lane::Rename, step), step);
            check(&lp);
        }
        assert_eq!(lp.overflow_cycles(Lane::Commit), 0);
        let c = lp.counters()[Lane::Commit as usize];
        assert_eq!((c.overflow_bumps, c.overflow_probe_steps), (0, 0));
        assert!(c.dense_growths > 0 && c.compactions > 0, "{c:?}");
        assert!(lp.tracked_cycles(Lane::Commit) as u64 <= MAX_DENSE_SPAN);
    }

    #[test]
    fn lane_pool_dense_growth_is_chunked_and_bounded() {
        let mut lp = LanePool::new(widths());
        // One allocation materialises a whole chunk, and the following
        // allocations inside it need no further growth.
        for c in 0..GROW_ROWS as u64 {
            lp.allocate(Lane::Alu, c);
        }
        assert_eq!(lp.tracked_cycles(Lane::Alu), GROW_ROWS);
        assert_eq!(lp.counters()[Lane::Alu as usize].dense_growths, 1);
        // Growth towards the span bound stops at it; past it is overflow.
        lp.allocate(Lane::Alu, MAX_DENSE_SPAN - 1);
        assert_eq!(lp.tracked_cycles(Lane::Alu) as u64, MAX_DENSE_SPAN);
        lp.allocate(Lane::Alu, MAX_DENSE_SPAN);
        assert_eq!(lp.tracked_cycles(Lane::Alu) as u64, MAX_DENSE_SPAN + 1);
        let c = lp.counters()[Lane::Alu as usize];
        assert_eq!((c.dense_growths, c.overflow_bumps), (2, 1));
        check(&lp);
        // The other lanes never materialised anything.
        assert_eq!(lp.tracked_cycles(Lane::Commit), 0);
    }

    #[test]
    fn lane_pool_prune_lane_below_clamps_like_reference_prune() {
        let mut lp = LanePool::new(widths());
        let mut r = SlotPool::new(widths()[Lane::Commit as usize]);
        lp.prune_lane_below(Lane::Commit, 1000);
        r.prune_below(1000);
        assert_eq!(lp.allocate(Lane::Commit, 3), r.allocate(3));
        // Other lanes are unaffected.
        assert_eq!(lp.allocate(Lane::Alu, 3), 3);
    }

    #[test]
    fn occupancy_ring_blocks_when_full() {
        let mut r = OccupancyRing::new(2);
        // Two entries outstanding, released at cycles 100 and 200.
        assert_eq!(r.constrain(10), 10);
        r.push(100);
        assert_eq!(r.constrain(11), 11);
        r.push(200);
        // Third allocation must wait for the first release.
        assert_eq!(r.constrain(12), 100);
        r.push(300);
        // Fourth must wait for the second release.
        assert_eq!(r.constrain(13), 200);
    }

    #[test]
    fn occupancy_ring_release_floor_after_matches_live_pushes() {
        // The batched floors, gathered before any push, must equal what
        // interleaved constrain/push calls would have returned.
        let releases = [100u64, 200, 300, 400, 500];
        for cap in 1..=4usize {
            let mut live = OccupancyRing::new(cap);
            let mut batched = OccupancyRing::new(cap);
            // Pre-populate both with some outstanding entries.
            for &c in &releases[..cap.min(3)] {
                live.push(c);
                batched.push(c);
            }
            let group = [700u64, 800, 900];
            let floors: Vec<u64> = (0..group.len().min(cap))
                .map(|k| batched.release_floor_after(k))
                .collect();
            for (k, &rel) in group.iter().take(floors.len()).enumerate() {
                assert_eq!(
                    live.constrain(0),
                    floors[k],
                    "cap {cap} position {k} diverged"
                );
                live.push(rel);
            }
            batched.push_group(&group[..floors.len()]);
            assert_eq!(live.constrain(0), batched.constrain(0));
        }
    }

    #[test]
    fn occupancy_ring_clear_resets() {
        let mut r = OccupancyRing::new(1);
        r.push(1000);
        assert_eq!(r.constrain(0), 1000);
        r.clear();
        assert_eq!(r.constrain(0), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_ring_panics() {
        let _ = OccupancyRing::new(0);
    }
}
