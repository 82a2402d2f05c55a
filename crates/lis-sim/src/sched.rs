//! The dependency-aware scheduler behind [`crate::System::settle`].
//!
//! Built once from the components' declared port sets
//! ([`crate::Component::ports`]) and sealed until the system changes:
//!
//! 1. **Clustering** — components writing a common signal are merged
//!    (union-find) so a signal always has exactly one evaluating group;
//!    insertion order is preserved inside a cluster.
//! 2. **Condensation** — Tarjan's SCC algorithm over the cluster graph
//!    (edge: writer → reader) collapses combinational cycles into
//!    groups. Acyclic groups evaluate their members exactly once per
//!    settle; cyclic groups run an inner worklist that re-evaluates only
//!    members whose declared inputs actually changed, bounded by an
//!    SCC-derived round limit. A group that fails to converge reports
//!    the *names* of the components forming the combinational loop.
//! 3. **Levelling** — groups are bucketed by longest path in the
//!    condensation DAG and stored in level order. Every signal a group
//!    reads is written at a strictly lower level (or inside the group
//!    itself), so one pass over the groups in that order reaches the
//!    same fixpoint the reference full-sweep loop iterated towards.
//!
//! On top of the sealed schedule sits the **activity kernel**
//! ([`crate::SettleMode::FastForward`], the default): an
//! [`ActivityState`] carries a persistent cross-cycle dirty set. A
//! settle evaluates only groups holding a dirty member; every tracked
//! signal change is recorded once per settle (epoch stamps on the dense
//! signal store make the dedupe O(writes)) and wakes exactly the
//! declared readers downstream — quiescent groups, and usually whole
//! levels, are skipped without being touched. The tick phase then runs,
//! in component-index order, only components whose observed signals
//! changed or whose previous [`crate::Component::tick`] reported
//! [`crate::Activity::Active`], each behind a read-only guarded view
//! (a tick that writes a signal, or reads one outside
//! `reads ∪ writes ∪ tick_reads`, panics). Because a quiescent
//! component re-ticked on unchanged inputs would change nothing by
//! contract, the skipped work is exactly the work whose results are
//! already in place — the fixpoint and every token stream stay
//! bit-identical to the full-sweep reference. The guards are what make
//! that sound: dirty propagation follows the *declared* ports, so an
//! undeclared access would silently go stale; they stay on in release
//! builds.
//!
//! The dirty set is seeded through a per-component **wake time**
//! (`wake_at`): an executed tick declares when the component must next
//! run ([`crate::Activity`] — next cycle, a scheduled future cycle, or
//! never until an observed signal changes), and a wake scan at the
//! start of each settle re-dirties exactly the components whose time
//! has come. The same wake times form the kernel's event wheel:
//! [`ActivityState::next_event`] reports the earliest future wake-up
//! when nothing is due now, which [`crate::System::fast_forward`] uses
//! to jump the clock over provably dead cycles.

use crate::kernel::{Activity, Component, Ports, SimError};
use crate::signal::{bit, BitWindow, Guard, Signal, SignalView};

/// Extra worklist rounds a cyclic group may take beyond its member
/// count before the settle is declared non-convergent (mirrors the
/// margin the full-sweep reference bound uses globally).
const SCC_ROUND_MARGIN: usize = 8;

/// One evaluation unit: a set of components owning a disjoint signal
/// write set, either acyclic (single pass) or a condensed combinational
/// SCC (inner worklist).
#[derive(Debug)]
struct Group {
    /// Component indices in insertion order.
    members: Vec<u32>,
    /// Whether any member reads a signal written inside the group.
    cyclic: bool,
}

/// Summary of a sealed scheduler: the structural fields (groups, levels,
/// SCC census, width) are stable across runs; the activity counters
/// accumulate over the run under [`crate::SettleMode::FastForward`] and
/// stay zero under [`crate::SettleMode::FullSweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Number of components scheduled.
    pub components: usize,
    /// Number of evaluation groups after clustering + condensation.
    pub groups: usize,
    /// Number of dependency levels.
    pub levels: usize,
    /// Groups needing an inner fixpoint (condensed combinational SCCs).
    pub cyclic_groups: usize,
    /// Largest number of groups in one level — how many groups share a
    /// dependency depth (a structural census; groups are evaluated one
    /// after another).
    pub max_level_width: usize,
    /// Groups evaluated by activity settles (cumulative).
    pub groups_evaluated: u64,
    /// Groups skipped as quiescent by activity settles (cumulative).
    pub groups_skipped: u64,
    /// Component ticks executed by activity steps (cumulative).
    pub components_ticked: u64,
    /// Component ticks skipped as quiescent (cumulative).
    pub components_quiescent: u64,
    /// Cycles the event wheel jumped over without visiting
    /// ([`crate::System::fast_forward`]; cumulative, deterministic).
    pub cycles_fast_forwarded: u64,
}

/// The sealed schedule. See the module docs.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// First mask word of each component's signal-id *window*: every
    /// declared signal of component `c` lies in words
    /// `mask_start[c] .. mask_start[c] + mask_len[c]`. Storing only the
    /// window keeps guard-mask memory O(Σ window sizes) rather than
    /// O(components × signals) — the difference between a few MB and
    /// gigabytes for a 64-lane fleet batch.
    mask_start: Vec<u32>,
    /// Window length of each component, in words.
    mask_len: Vec<u32>,
    /// Offset of each component's window inside the bit arenas.
    mask_off: Vec<usize>,
    /// Declared read sets, windowed per component.
    read_bits: Vec<u64>,
    /// Declared write sets, windowed per component.
    write_bits: Vec<u64>,
    /// Tick-phase observable sets (`reads ∪ writes ∪ tick_reads`),
    /// windowed per component.
    tick_bits: Vec<u64>,
    /// Component names (for guards and diagnostics).
    names: Vec<String>,
    /// Signals with more than one declared writer: a change re-dirties
    /// the co-writers (they may disagree), not just the readers.
    multi_writer: Vec<u64>,
    /// Per-signal eval readers (dirty propagation of the activity
    /// kernel).
    eval_readers: Vec<Vec<u32>>,
    /// Per-signal declared writers (a poked signal re-dirties them so
    /// the next settle overwrites the poke exactly like the full sweep
    /// would).
    writers_of: Vec<Vec<u32>>,
    /// Per-signal tick observers (components whose tick mask covers the
    /// signal — a change wakes their tick).
    tick_observers: Vec<Vec<u32>>,
    /// Group index of every component.
    group_of: Vec<u32>,
    /// Position of every component inside its group's member list
    /// (cyclic-group dirty propagation addresses members directly).
    member_pos: Vec<u32>,
    /// Groups in topological order, bucketed contiguously by level.
    groups: Vec<Group>,
    /// Level boundaries: `groups[levels[i]..levels[i+1]]` is level `i`.
    levels: Vec<usize>,
}

impl Scheduler {
    /// Seals the dependency graph of `components` over `n_signals`
    /// signals.
    pub(crate) fn build(
        components: &[Box<dyn Component>],
        ports: &[Ports],
        n_signals: usize,
    ) -> Scheduler {
        let n = components.len();
        // One word window per component, covering every signal it
        // declares (reads ∪ writes ∪ tick_reads); all three masks share
        // the window, so the merge below stays elementwise.
        let mut win_lo = vec![u32::MAX; n];
        let mut win_hi = vec![0u32; n];
        for (c, p) in ports.iter().enumerate() {
            for id in p.reads.iter().chain(&p.writes).chain(&p.tick_reads) {
                let w = (id.index() / 64) as u32;
                win_lo[c] = win_lo[c].min(w);
                win_hi[c] = win_hi[c].max(w);
            }
        }
        let mut mask_start = vec![0u32; n];
        let mut mask_len = vec![0u32; n];
        let mut mask_off = vec![0usize; n];
        let mut total_words = 0usize;
        for c in 0..n {
            if win_lo[c] != u32::MAX {
                mask_start[c] = win_lo[c];
                mask_len[c] = win_hi[c] - win_lo[c] + 1;
            }
            mask_off[c] = total_words;
            total_words += mask_len[c] as usize;
        }
        let mut read_bits = vec![0u64; total_words];
        let mut write_bits = vec![0u64; total_words];
        let mut tick_bits = vec![0u64; total_words];
        let mut writers: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
        let mut tick_observers: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
        for (c, p) in ports.iter().enumerate() {
            let word = |i: usize| mask_off[c] + i / 64 - mask_start[c] as usize;
            for id in &p.reads {
                let i = id.index();
                read_bits[word(i)] |= 1 << (i % 64);
                readers[i].push(c as u32);
                tick_observers[i].push(c as u32);
            }
            for id in &p.writes {
                let i = id.index();
                write_bits[word(i)] |= 1 << (i % 64);
                writers[i].push(c as u32);
                tick_observers[i].push(c as u32);
            }
            for id in &p.tick_reads {
                let i = id.index();
                tick_bits[word(i)] |= 1 << (i % 64);
                tick_observers[i].push(c as u32);
            }
        }
        // A tick may read everything eval may touch, plus tick_reads.
        for (t, (r, w)) in tick_bits.iter_mut().zip(read_bits.iter().zip(&write_bits)) {
            *t |= r | w;
        }
        for r in &mut readers {
            r.dedup();
        }
        for w in &mut writers {
            w.dedup();
        }
        for t in &mut tick_observers {
            t.sort_unstable();
            t.dedup();
        }

        // 1. Cluster components sharing a written signal (multi-writer
        //    signals keep the full sweep's insertion-order semantics by
        //    evaluating all their writers inside one group).
        let mut uf = UnionFind::new(n);
        for w in &writers {
            for pair in w.windows(2) {
                uf.union(pair[0] as usize, pair[1] as usize);
            }
        }

        // 2. Cluster graph: edge writer-cluster → reader-cluster.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (s, w) in writers.iter().enumerate() {
            if w.is_empty() {
                continue;
            }
            let from = uf.find(w[0] as usize) as u32;
            for &r in &readers[s] {
                let to = uf.find(r as usize) as u32;
                if to != from {
                    edges.push((from, to));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // 3. Tarjan condensation over cluster roots.
        let roots: Vec<usize> = (0..n).filter(|&c| uf.find(c) == c).collect();
        let root_pos = |root: usize| roots.binary_search(&root).expect("root");
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); roots.len()];
        for &(a, b) in &edges {
            adj[root_pos(a as usize)].push(root_pos(b as usize) as u32);
        }
        let sccs = tarjan_sccs(&adj); // reverse topological order

        // 4. Groups in topological order, then levels by longest path.
        let mut scc_of = vec![usize::MAX; roots.len()];
        for (i, scc) in sccs.iter().enumerate() {
            for &node in scc {
                scc_of[node as usize] = i;
            }
        }
        let topo: Vec<usize> = (0..sccs.len()).rev().collect();
        let mut level_of = vec![0usize; sccs.len()];
        for &s in &topo {
            for &node in &sccs[s] {
                for &succ in &adj[node as usize] {
                    let t = scc_of[succ as usize];
                    if t != s {
                        level_of[t] = level_of[t].max(level_of[s] + 1);
                    }
                }
            }
        }

        // Members per cluster root, in insertion order.
        let mut cluster_members: Vec<Vec<u32>> = vec![Vec::new(); roots.len()];
        for c in 0..n {
            cluster_members[root_pos(uf.find(c))].push(c as u32);
        }

        // Window-aware read/write intersection: only the overlapping
        // word range of the two components' windows can share a bit.
        fn slice_window<'a>(
            bits: &'a [u64],
            start: &[u32],
            off: &[usize],
            len: &[u32],
            c: u32,
        ) -> (usize, &'a [u64]) {
            let c = c as usize;
            (start[c] as usize, &bits[off[c]..off[c] + len[c] as usize])
        }
        let reads_writes_intersect = |r: u32, w: u32| {
            let (rs, rm) = slice_window(&read_bits, &mask_start, &mask_off, &mask_len, r);
            let (ws, wm) = slice_window(&write_bits, &mask_start, &mask_off, &mask_len, w);
            let lo = rs.max(ws);
            let hi = (rs + rm.len()).min(ws + wm.len());
            (lo..hi).any(|i| rm[i - rs] & wm[i - ws] != 0)
        };

        let mut groups: Vec<(usize, Group)> = Vec::with_capacity(sccs.len());
        for (i, scc) in sccs.iter().enumerate() {
            let mut members: Vec<u32> = scc
                .iter()
                .flat_map(|&node| cluster_members[node as usize].iter().copied())
                .collect();
            members.sort_unstable();
            // Cyclic iff the group needs an inner fixpoint: a condensed
            // multi-cluster SCC, a multi-writer cluster (full sweeps
            // re-evaluate disagreeing writers until they agree — or
            // never converge), or a member reading its own group's
            // written signals.
            let cyclic = scc.len() > 1
                || members.len() > 1
                || members
                    .iter()
                    .any(|&m| members.iter().any(|&w| reads_writes_intersect(m, w)));
            if cyclic && members.len() > 1 {
                // Quasi-topological member order (Kahn with minimum-index
                // cycle breaking): evaluating writers before their
                // readers makes the inner worklist converge in one round
                // plus one re-eval per broken back edge, instead of one
                // round per dependency chain link.
                let k = members.len();
                let reads_from =
                    |i: usize, j: usize| i != j && reads_writes_intersect(members[i], members[j]);
                let mut indegree: Vec<usize> = (0..k)
                    .map(|i| (0..k).filter(|&j| reads_from(i, j)).count())
                    .collect();
                let mut placed = vec![false; k];
                let mut order = Vec::with_capacity(k);
                for _ in 0..k {
                    let next = (0..k)
                        .filter(|&i| !placed[i])
                        .min_by_key(|&i| (indegree[i], i))
                        .expect("member left");
                    placed[next] = true;
                    order.push(members[next]);
                    for i in 0..k {
                        if !placed[i] && reads_from(i, next) {
                            indegree[i] -= 1;
                        }
                    }
                }
                members = order;
            }
            groups.push((level_of[i], Group { members, cyclic }));
        }
        // Bucket by level; deterministic order inside a level by first
        // member index.
        groups.sort_by_key(|(level, g)| (*level, g.members.first().copied().unwrap_or(0)));
        let n_levels = groups.last().map_or(0, |(l, _)| l + 1);
        let mut levels = vec![0usize; n_levels + 1];
        for (l, _) in &groups {
            levels[l + 1] += 1;
        }
        for i in 1..levels.len() {
            levels[i] += levels[i - 1];
        }

        let mut multi_writer = vec![0u64; n_signals.div_ceil(64).max(1)];
        for (s, w) in writers.iter().enumerate() {
            if w.len() > 1 {
                multi_writer[s / 64] |= 1 << (s % 64);
            }
        }

        let groups: Vec<Group> = groups.into_iter().map(|(_, g)| g).collect();
        let mut group_of = vec![0u32; n];
        let mut member_pos = vec![0u32; n];
        for (gi, g) in groups.iter().enumerate() {
            for (i, &m) in g.members.iter().enumerate() {
                group_of[m as usize] = gi as u32;
                member_pos[m as usize] = i as u32;
            }
        }

        Scheduler {
            mask_start,
            mask_len,
            mask_off,
            read_bits,
            write_bits,
            tick_bits,
            names: components.iter().map(|c| c.name().to_owned()).collect(),
            multi_writer,
            eval_readers: readers,
            writers_of: writers,
            tick_observers,
            group_of,
            member_pos,
            groups,
            levels,
        }
    }

    /// Structural summary (stable across runs; activity counters zero —
    /// [`ActivityState::fill_counters`] adds them).
    pub(crate) fn stats(&self) -> SchedulerStats {
        let widths =
            (0..self.levels.len().saturating_sub(1)).map(|l| self.levels[l + 1] - self.levels[l]);
        SchedulerStats {
            components: self.names.len(),
            groups: self.groups.len(),
            levels: self.levels.len().saturating_sub(1),
            cyclic_groups: self.groups.iter().filter(|g| g.cyclic).count(),
            max_level_width: widths.max().unwrap_or(0),
            ..SchedulerStats::default()
        }
    }

    /// A fresh all-dirty [`ActivityState`] sized for this schedule.
    pub(crate) fn new_activity_state(&self, n_signals: usize) -> ActivityState {
        let n = self.names.len();
        ActivityState {
            epoch: 0,
            comp_dirty: vec![true; n],
            group_dirty: vec![true; self.groups.len()],
            tick_pending: vec![true; n],
            // Everything is due immediately: the first settle evaluates
            // and the first tick runs every component.
            wake_at: vec![0; n],
            sig_epoch: vec![0; n_signals],
            changed: Vec::new(),
            groups_evaluated: 0,
            groups_skipped: 0,
            components_ticked: 0,
            components_quiescent: 0,
            cycles_fast_forwarded: 0,
        }
    }

    /// Component `c`'s windowed guard mask inside one of the bit arenas.
    fn window<'a>(&'a self, bits: &'a [u64], c: u32) -> BitWindow<'a> {
        let c = c as usize;
        let off = self.mask_off[c];
        BitWindow {
            start_word: self.mask_start[c] as usize,
            words: &bits[off..off + self.mask_len[c] as usize],
        }
    }

    /// Re-dirties the members of group `gi` that must re-evaluate after
    /// signal `cid` changed: its declared readers, plus — when several
    /// components write `cid` and may disagree — its co-writers. Walks
    /// the per-signal reader/writer lists instead of scanning the member
    /// array, so propagation is O(touchers of the signal), not
    /// O(group size): inside a lane-batched fleet a node's group holds
    /// every lane's stop-path neighbours, and a member scan per change
    /// would cost O(lanes²) per settle.
    fn redirty_members(&self, gi: u32, cid: u32, dirty: &mut [bool]) {
        for &r in &self.eval_readers[cid as usize] {
            if self.group_of[r as usize] == gi {
                dirty[self.member_pos[r as usize] as usize] = true;
            }
        }
        if bit(&self.multi_writer, cid as usize) {
            for &w in &self.writers_of[cid as usize] {
                if self.group_of[w as usize] == gi {
                    dirty[self.member_pos[w as usize] as usize] = true;
                }
            }
        }
    }

    /// Evaluates one member with a guarded view.
    fn eval_member(
        &self,
        m: u32,
        signals: &mut [Signal],
        component: &mut dyn Component,
        cycle: u64,
        track: &mut Vec<u32>,
    ) {
        let guard = Guard {
            component: &self.names[m as usize],
            reads: self.window(&self.read_bits, m),
            writes: self.window(&self.write_bits, m),
            track: Some(track),
            tick: false,
        };
        component.eval(&mut SignalView::guarded(signals, cycle, guard));
    }

    /// One activity settle: groups without a dirty member are
    /// skipped wholesale; every evaluated group reports the signals it
    /// actually changed, which wake exactly the declared downstream
    /// readers. Groups run in level order and each group's changes are
    /// absorbed right after it: a changed signal's readers sit at
    /// strictly higher levels or inside the same (already converged)
    /// group, so one pass still reaches the fixpoint. Pending pokes are
    /// folded into the dirty seed first, and at the end every change
    /// recorded this settle arms the tick of its observers.
    pub(crate) fn settle_activity(
        &self,
        signals: &mut [Signal],
        components: &mut [Box<dyn Component>],
        state: &mut ActivityState,
        poked: &mut Vec<u32>,
        cycle: u64,
    ) -> Result<(), SimError> {
        debug_assert_eq!(components.len(), self.names.len());
        state.epoch += 1;
        state.changed.clear();

        // Wake scan: components whose declared wake-up time has arrived
        // re-enter the dirty set (an Active tick wakes next cycle, a
        // sleeper at its scheduled cycle, a quiescent component never).
        for c in 0..self.names.len() {
            if state.wake_at[c] <= cycle {
                state.mark_dirty(c as u32, self.group_of[c]);
            }
        }

        // Pokes wake their readers (and the declared writers, which
        // will overwrite the poke next settle exactly as the full
        // sweep's blanket re-evaluation would).
        for &s in poked.iter() {
            state.record_changed(s);
            for &c in &self.eval_readers[s as usize] {
                state.mark_dirty(c, self.group_of[c as usize]);
            }
            for &w in &self.writers_of[s as usize] {
                state.mark_dirty(w, self.group_of[w as usize]);
            }
        }
        poked.clear();

        let mut changes = Vec::new();
        for gi in 0..self.groups.len() {
            if !state.group_dirty[gi] {
                state.groups_skipped += 1;
                continue;
            }
            changes.clear();
            self.run_group_activity(
                gi,
                signals,
                components,
                cycle,
                &state.comp_dirty,
                &mut changes,
            )?;
            // Absorb the group: clear its evaluated dirt, record each
            // changed signal once per settle, and wake its readers.
            state.groups_evaluated += 1;
            state.group_dirty[gi] = false;
            for &m in &self.groups[gi].members {
                state.comp_dirty[m as usize] = false;
            }
            for &s in &changes {
                if state.record_changed(s) {
                    for &c in &self.eval_readers[s as usize] {
                        state.mark_dirty(c, self.group_of[c as usize]);
                    }
                }
            }
        }

        // Everything that changed this settle arms its tick observers.
        for &s in &state.changed {
            for &c in &self.tick_observers[s as usize] {
                state.tick_pending[c as usize] = true;
            }
        }
        Ok(())
    }

    /// Evaluates one dirty group, accumulating every changed signal id
    /// (with duplicates) into `changes`.
    fn run_group_activity(
        &self,
        gi: usize,
        signals: &mut [Signal],
        components: &mut [Box<dyn Component>],
        cycle: u64,
        comp_dirty: &[bool],
        changes: &mut Vec<u32>,
    ) -> Result<(), SimError> {
        let g = &self.groups[gi];
        if !g.cyclic {
            // Acyclic groups are always single-member.
            for &m in &g.members {
                self.eval_member(m, signals, &mut *components[m as usize], cycle, changes);
            }
            return Ok(());
        }
        // Inner worklist, seeded with the *globally* dirty members only:
        // the others are already at the fixpoint of unchanged inputs.
        let k = g.members.len();
        let mut dirty: Vec<bool> = g.members.iter().map(|&m| comp_dirty[m as usize]).collect();
        let mut changed: Vec<u32> = Vec::new();
        let max_rounds = k + SCC_ROUND_MARGIN;
        for _ in 0..max_rounds {
            let mut evaluated = false;
            for mi in 0..k {
                if !dirty[mi] {
                    continue;
                }
                dirty[mi] = false;
                evaluated = true;
                let m = g.members[mi];
                changed.clear();
                self.eval_member(
                    m,
                    signals,
                    &mut *components[m as usize],
                    cycle,
                    &mut changed,
                );
                changes.extend_from_slice(&changed);
                for &cid in &changed {
                    // A changed signal re-dirties its readers; a signal
                    // with several writers also re-dirties the
                    // co-writers (full sweeps re-evaluate disagreeing
                    // writers until they agree, or report
                    // non-convergence). Sole writers are idempotent by
                    // contract — re-evaluating them is pure waste.
                    self.redirty_members(gi as u32, cid, &mut dirty);
                }
            }
            if !evaluated || dirty.iter().all(|d| !d) {
                return Ok(());
            }
        }
        Err(SimError::NoConvergence {
            cycle,
            sweeps: max_rounds,
            components: g
                .members
                .iter()
                .map(|&m| self.names[m as usize].clone())
                .collect(),
        })
    }

    /// The activity tick phase: runs, in component-index order, only
    /// components whose observed signals changed (`tick_pending`) or
    /// whose declared wake-up time has arrived (`wake_at`). Every
    /// executed tick gets a read-only guarded view over its declared
    /// observable set; its reported [`Activity`] sets the component's
    /// next wake-up time, which seeds the next settle's dirty set (and
    /// the event wheel).
    pub(crate) fn tick_activity(
        &self,
        signals: &mut [Signal],
        components: &mut [Box<dyn Component>],
        state: &mut ActivityState,
        cycle: u64,
    ) {
        let n = self.names.len();
        let mut ticked = 0;
        for (c, component) in components.iter_mut().enumerate() {
            // A tick only moves its own component's wake time, so the
            // condition of every later component is unaffected.
            if state.tick_pending[c] || state.wake_at[c] <= cycle {
                let act = self.tick_member(c as u32, signals, &mut **component, cycle);
                state.apply_tick(c as u32, act, cycle);
                ticked += 1;
            }
        }
        state.components_ticked += ticked as u64;
        state.components_quiescent += (n - ticked) as u64;
    }

    /// Ticks one component behind a read-only guard over its declared
    /// observable set.
    fn tick_member(
        &self,
        c: u32,
        signals: &mut [Signal],
        component: &mut dyn Component,
        cycle: u64,
    ) -> Activity {
        let guard = Guard {
            component: &self.names[c as usize],
            reads: self.window(&self.tick_bits, c),
            writes: BitWindow::EMPTY,
            track: None,
            tick: true,
        };
        component.tick(&SignalView::guarded(signals, cycle, guard))
    }
}

/// Persistent cross-cycle state of the activity kernel: the
/// dirty/pending/active sets, the per-settle change record, and the
/// cumulative skip counters. Created all-dirty by
/// [`Scheduler::new_activity_state`] and rebuilt whenever the system's
/// structure (or settle mode) changes.
#[derive(Debug)]
pub(crate) struct ActivityState {
    /// Settle counter; stamps [`ActivityState::sig_epoch`] so each
    /// signal is recorded at most once per settle — change detection
    /// stays O(writes), not O(signals).
    epoch: u64,
    /// Component must re-evaluate in the next settle.
    comp_dirty: Vec<bool>,
    /// Group holds at least one dirty member (fast skip test).
    group_dirty: Vec<bool>,
    /// An observed signal changed since the component's last tick.
    tick_pending: Vec<bool>,
    /// The cycle at which the component must next run unconditionally —
    /// its event-wheel slot: `cycle + 1` after an
    /// [`crate::Activity::Active`] tick, a scheduled future cycle after
    /// [`crate::Activity::Sleep`], `u64::MAX` (never, until an observed
    /// signal changes) after [`crate::Activity::Quiescent`].
    wake_at: Vec<u64>,
    /// Per-signal epoch of the last recorded change.
    sig_epoch: Vec<u64>,
    /// Signals changed during the current settle (deduped).
    changed: Vec<u32>,
    groups_evaluated: u64,
    groups_skipped: u64,
    components_ticked: u64,
    components_quiescent: u64,
    cycles_fast_forwarded: u64,
}

impl ActivityState {
    /// Records `s` as changed this settle; true if newly recorded.
    fn record_changed(&mut self, s: u32) -> bool {
        if self.sig_epoch[s as usize] == self.epoch {
            return false;
        }
        self.sig_epoch[s as usize] = self.epoch;
        self.changed.push(s);
        true
    }

    fn mark_dirty(&mut self, c: u32, group: u32) {
        self.comp_dirty[c as usize] = true;
        self.group_dirty[group as usize] = true;
    }

    fn apply_tick(&mut self, c: u32, act: Activity, cycle: u64) {
        self.tick_pending[c as usize] = false;
        self.wake_at[c as usize] = cycle.saturating_add(act.wake_offset());
    }

    /// The signals recorded as changed by the most recent settle.
    pub(crate) fn changed_signals(&self) -> &[u32] {
        &self.changed
    }

    /// The event wheel's verdict at `cycle`: `Some(t)` with `t > cycle`
    /// if nothing whatsoever is due now — no component dirty, no tick
    /// pending, every wake-up in the future — and the earliest declared
    /// wake-up is `t` (`u64::MAX` when everything is quiescent forever).
    /// `None` means work is due at the current cycle and the clock must
    /// not jump.
    pub(crate) fn next_event(&self, cycle: u64) -> Option<u64> {
        if self.comp_dirty.iter().any(|&d| d) || self.tick_pending.iter().any(|&p| p) {
            return None;
        }
        let earliest = self.wake_at.iter().copied().min().unwrap_or(u64::MAX);
        if earliest > cycle {
            Some(earliest)
        } else {
            None
        }
    }

    /// Accounts `skipped` cycles jumped over by the event wheel.
    pub(crate) fn note_fast_forward(&mut self, skipped: u64) {
        self.cycles_fast_forwarded += skipped;
    }

    /// Copies the cumulative skip/eval/tick counters into `stats`.
    pub(crate) fn fill_counters(&self, stats: &mut SchedulerStats) {
        stats.groups_evaluated = self.groups_evaluated;
        stats.groups_skipped = self.groups_skipped;
        stats.components_ticked = self.components_ticked;
        stats.components_quiescent = self.components_quiescent;
        stats.cycles_fast_forwarded = self.cycles_fast_forwarded;
    }
}

/// Path-compressing union-find.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges toward the smaller root so cluster roots stay the
    /// earliest-inserted member (deterministic naming).
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo as u32;
        }
    }
}

/// Iterative Tarjan: returns SCCs in reverse topological order.
fn tarjan_sccs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    let mut next_index = 0u32;
    // Explicit DFS frames: (node, next edge offset).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != u32::MAX {
            continue;
        }
        frames.push((start as u32, 0));
        while let Some(&(v, ei)) = frames.last() {
            let v = v as usize;
            if index[v] == u32::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v as u32);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ei) {
                frames.last_mut().expect("frame").1 += 1;
                let w = w as usize;
                if index[w] == u32::MAX {
                    frames.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_finds_cycle_and_orders_reverse_topologically() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let sccs = tarjan_sccs(&adj);
        assert!(sccs.contains(&vec![1, 2]));
        let pos = |needle: &[u32]| sccs.iter().position(|s| s[..] == *needle).unwrap();
        // Reverse topological: sinks first.
        assert!(pos(&[3]) < pos(&[1, 2]));
        assert!(pos(&[1, 2]) < pos(&[0]));
    }

    #[test]
    fn union_find_keeps_smallest_root() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 1);
        uf.union(4, 3);
        assert_eq!(uf.find(4), 1);
        assert_eq!(uf.find(0), 0);
    }
}
