//! The sweep prefilter: one model quotient per test.
//!
//! A checker's verdict depends on the model only through the
//! program-order edges its formula forces — and the formula sees each
//! same-thread pair only through its valuation. So per test, each po
//! pair's valuation slot is computed once, and a model row forces the
//! pair iff its truth table is true at that slot. Rows that agree on
//! every realized slot force the same pairs and provably share the
//! verdict; the sweep engine hands the checker one representative per
//! group, together with the group's forced pairs, and fans the verdict
//! out.

use mcm_core::{EventId, Execution, MemoryModel, ThreadId};

use crate::table::TruthTable;
use crate::universe::{AtomUniverse, Valuation};

/// Precomputed per-sweep state: the truth table of every model row, all
/// in one shared universe, stored transposed — one bitset over rows per
/// valuation slot — so a test's quotient splits a word of rows at a time.
#[derive(Clone, Debug)]
pub struct SweepPrefilter {
    universe: AtomUniverse,
    rows: usize,
    /// Words per row bitset.
    stride: usize,
    /// `columns[slot * stride + r / 64]` bit `r % 64`: row `r`'s table
    /// at `slot`.
    columns: Vec<u64>,
}

/// One test's model quotient: the given rows grouped by the
/// program-order pairs their formulas force on the test.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Quotient {
    /// The group of each input row, in input order. Groups are numbered
    /// in order of their first row.
    pub group_of: Vec<usize>,
    /// Per group: its representative (its first input row) and the
    /// same-thread pairs it forces, in thread-major program order with
    /// `x` po-before `y` — exactly `forced_po_pairs` of every member.
    pub groups: Vec<(usize, Vec<(EventId, EventId)>)>,
}

impl SweepPrefilter {
    /// Builds the prefilter for the (row-representative) models of a
    /// sweep.
    #[must_use]
    pub fn new(models: &[&MemoryModel]) -> Self {
        let universe = AtomUniverse::for_formulas(models.iter().map(|m| m.formula()));
        let stride = models.len().div_ceil(64);
        let mut columns = vec![0u64; universe.size() * stride];
        for (r, model) in models.iter().enumerate() {
            let table = TruthTable::build(model.formula(), &universe);
            for slot in 0..universe.size() {
                if table.get(slot) {
                    columns[slot * stride + r / 64] |= 1 << (r % 64);
                }
            }
        }
        SweepPrefilter {
            universe,
            rows: models.len(),
            stride,
            columns,
        }
    }

    /// Number of model rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the prefilter covers no models.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The rows whose tables are true at `slot`, as a bitset.
    fn column(&self, slot: usize) -> &[u64] {
        &self.columns[slot * self.stride..(slot + 1) * self.stride]
    }

    /// Every same-thread program-order pair of the execution with its
    /// valuation slot, in thread-major program order.
    fn po_slots(&self, exec: &Execution) -> Vec<((EventId, EventId), usize)> {
        let mut slots = Vec::new();
        for thread in 0..exec.num_threads() {
            let events =
                exec.thread_events(ThreadId(u8::try_from(thread).expect("at most 255 threads")));
            for (i, &x) in events.iter().enumerate() {
                for &y in &events[i + 1..] {
                    let v = Valuation {
                        first: self.universe.event_kind(exec.event(x)),
                        second: self.universe.event_kind(exec.event(y)),
                        same_addr: match (exec.event(x).loc(), exec.event(y).loc()) {
                            (Some(a), Some(b)) => a == b,
                            _ => false,
                        },
                        data_dep: exec.data_dep(x, y),
                        ctrl_dep: exec.ctrl_dep(x, y),
                    };
                    slots.push(((x, y), self.universe.index(&v)));
                }
            }
        }
        slots
    }

    /// The model quotient of the given rows on one test, by partition
    /// refinement: starting from the set of given rows, every class is
    /// split by the column of each distinct slot the test's po pairs
    /// realize. Rows left in one class agree on every realized slot, so
    /// they force the same pairs. Classes are row bitsets in one flat
    /// buffer, so no row allocates and any number of pairs works.
    #[must_use]
    pub fn quotient(&self, exec: &Execution, rows: &[usize]) -> Quotient {
        if rows.is_empty() {
            return Quotient::default();
        }
        let pair_slots = self.po_slots(exec);
        let mut slots: Vec<usize> = pair_slots.iter().map(|&(_, slot)| slot).collect();
        slots.sort_unstable();
        slots.dedup();

        let stride = self.stride;
        let mut classes = vec![0u64; stride];
        for &row in rows {
            classes[row / 64] |= 1 << (row % 64);
        }
        for &slot in &slots {
            let column = self.column(slot);
            for start in (0..classes.len()).step_by(stride) {
                let class = &classes[start..start + stride];
                let inside = class.iter().zip(column).any(|(w, c)| w & c != 0);
                let outside = class.iter().zip(column).any(|(w, c)| w & !c != 0);
                if inside && outside {
                    for (i, &c) in column.iter().enumerate() {
                        let w = classes[start + i];
                        classes[start + i] = w & c;
                        classes.push(w & !c);
                    }
                }
            }
        }

        // Number the classes in order of their first input row.
        let mut number = vec![usize::MAX; classes.len() / stride];
        let mut groups = Vec::new();
        let group_of = rows
            .iter()
            .map(|&row| {
                let class = classes
                    .chunks_exact(stride)
                    .position(|class| class[row / 64] >> (row % 64) & 1 == 1)
                    .expect("every given row is in a class");
                if number[class] == usize::MAX {
                    number[class] = groups.len();
                    let pairs = pair_slots
                        .iter()
                        .filter(|&&(_, slot)| self.column(slot)[row / 64] >> (row % 64) & 1 == 1)
                        .map(|&(pair, _)| pair)
                        .collect();
                    groups.push((row, pairs));
                }
                number[class]
            })
            .collect();
        Quotient { group_of, groups }
    }

    /// The groups of [`SweepPrefilter::quotient`] as row lists. Rows in
    /// one group provably share the verdict; each group's first element
    /// is its representative. Groups preserve the input row order.
    #[must_use]
    pub fn group_rows(&self, exec: &Execution, rows: &[usize]) -> Vec<Vec<usize>> {
        let quotient = self.quotient(exec, rows);
        let mut groups = vec![Vec::new(); quotient.groups.len()];
        for (&row, &g) in rows.iter().zip(&quotient.group_of) {
            groups[g].push(row);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_models::{catalog, named, DigitModel};

    fn prefilter_for(models: &[MemoryModel]) -> SweepPrefilter {
        let refs: Vec<&MemoryModel> = models.iter().collect();
        SweepPrefilter::new(&refs)
    }

    #[test]
    fn models_agreeing_on_a_test_share_a_group() {
        // M1010 and M1110 differ only on same-address W→R pairs; a test
        // with none of those must put them in one group.
        let models = vec![
            "M1010".parse::<DigitModel>().unwrap().to_model(),
            "M1110".parse::<DigitModel>().unwrap().to_model(),
            named::sc(),
        ];
        let pf = prefilter_for(&models);
        // L1 (store buffering shape) has no same-address W→R po pair.
        let exec = catalog::l1().execution();
        let groups = pf.group_rows(&exec, &[0, 1, 2]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1]);
        assert_eq!(groups[1], vec![2]);
    }

    #[test]
    fn groups_preserve_row_order_and_partition() {
        let models: Vec<MemoryModel> = ["M4444", "M4044", "M1010"]
            .iter()
            .map(|s| s.parse::<DigitModel>().unwrap().to_model())
            .collect();
        let pf = prefilter_for(&models);
        let exec = catalog::test_a().execution();
        let groups = pf.group_rows(&exec, &[2, 0, 1]);
        let flattened: Vec<usize> = groups.iter().flatten().copied().collect();
        let mut sorted = flattened.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert_eq!(flattened[0], 2, "first input row leads the first group");
    }
}
