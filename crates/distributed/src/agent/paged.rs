//! An agent's per-instance entries, in pages (DESIGN.md §6j "Why pages
//! for the agent's entries").
//!
//! An agent keeps an entry for every instance it touched and has not
//! purged: 7.5 per workflow instance in the benchmark's L shape. Freeing
//! a heap block costs about one cache miss, so a block per entry would
//! make teardown scale with the entries. A hashed index finds an entry's
//! slot, and the entries live in fixed pages of [`PAGE`] slots, each page
//! one block. An entry never moves once placed; a removal empties its
//! slot for the next instance.

use super::ByInstance;
use crew_model::InstanceId;
use std::ops::Index;

/// Slots per page. A page is one heap block, so an agent holds one block
/// per 64 entries instead of one per entry, and a page of 320-byte
/// `InstState`s (20 KiB) stays under glibc's 128 KiB mmap threshold: it
/// comes from the heap, not from a mapping of its own. The last page of
/// an agent is partly empty, at most 63 default entries, which hold no
/// heap of their own.
const PAGE: usize = 64;

/// Entries keyed by instance: a hashed index `InstanceId → slot` and the
/// slots, `PAGE` to a page. The index is a [`ByInstance`], so the table
/// iterates in the order a `ByInstance` of its keys would.
pub(super) struct Paged<T> {
    /// Each held instance's slot; slot `s` is entry `s % PAGE` of page
    /// `s / PAGE`.
    index: ByInstance<u32>,
    /// Every slot handed out so far, in order. Pages are only appended.
    pages: Vec<Box<[T; PAGE]>>,
    /// Slots a removal emptied, reused before a fresh one (last freed,
    /// first reused).
    free: Vec<u32>,
}

impl<T> Default for Paged<T> {
    fn default() -> Self {
        Paged {
            index: ByInstance::default(),
            pages: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Default> Paged<T> {
    pub(super) fn get(&self, instance: &InstanceId) -> Option<&T> {
        let slot = *self.index.get(instance)?;
        Some(self.slot(slot))
    }

    pub(super) fn get_mut(&mut self, instance: &InstanceId) -> Option<&mut T> {
        let slot = *self.index.get(instance)?;
        Some(self.slot_mut(slot))
    }

    /// `instance`'s entry, a default one in a free slot on first contact.
    pub(super) fn get_or_default(&mut self, instance: InstanceId) -> &mut T {
        // With no slot free, every slot handed out is held: the next one
        // is the index's length.
        let fresh = self.index.len();
        let (free, pages) = (&mut self.free, &mut self.pages);
        let slot = *self.index.entry(instance).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                if fresh == pages.len() * PAGE {
                    pages.push(page());
                }
                fresh as u32
            })
        });
        self.slot_mut(slot)
    }

    /// Drop `instance`'s entry, if held: its tables are freed now, and
    /// its slot holds a default entry until an instance takes it.
    pub(super) fn remove(&mut self, instance: &InstanceId) {
        if let Some(slot) = self.index.remove(instance) {
            *self.slot_mut(slot) = T::default();
            self.free.push(slot);
        }
    }

    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The held instances, in the index's order.
    #[cfg(test)]
    pub(super) fn keys(&self) -> impl Iterator<Item = &InstanceId> {
        self.index.keys()
    }

    /// Call `visit` on every entry, in the index's order.
    pub(super) fn for_each_mut(&mut self, mut visit: impl FnMut(InstanceId, &mut T)) {
        for (&instance, &slot) in &self.index {
            let slot = slot as usize;
            visit(instance, &mut self.pages[slot / PAGE][slot % PAGE]);
        }
    }

    fn slot(&self, slot: u32) -> &T {
        let slot = slot as usize;
        &self.pages[slot / PAGE][slot % PAGE]
    }

    fn slot_mut(&mut self, slot: u32) -> &mut T {
        let slot = slot as usize;
        &mut self.pages[slot / PAGE][slot % PAGE]
    }
}

/// A page of default entries, built in place on the heap.
fn page<T: Default>() -> Box<[T; PAGE]> {
    let slots: Box<[T]> = (0..PAGE).map(|_| T::default()).collect();
    slots
        .try_into()
        .unwrap_or_else(|_| unreachable!("{PAGE} slots collected"))
}

impl<T: Default> Index<&InstanceId> for Paged<T> {
    type Output = T;

    fn index(&self, instance: &InstanceId) -> &T {
        self.get(instance).expect("instance held")
    }
}

#[cfg(test)]
impl<T> Paged<T> {
    /// Pages allocated so far.
    pub(super) fn pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::SchemaId;

    fn inst(serial: u32) -> InstanceId {
        InstanceId::new(SchemaId(1), serial)
    }

    /// Three full pages and a part of a fourth: every entry is found
    /// where it was written, and an entry placed before the table grew
    /// by whole pages is still at the same address.
    #[test]
    fn lookups_hold_across_page_boundaries() {
        let mut table = Paged::<Vec<u32>>::default();
        let count = 3 * PAGE as u32 + 5;
        table.get_or_default(inst(0)).push(0);
        let first: *const Vec<u32> = &table[&inst(0)];
        for serial in 1..count {
            table.get_or_default(inst(serial)).push(serial);
        }
        assert_eq!(table.pages(), 4);
        for serial in 0..count {
            assert_eq!(table[&inst(serial)], [serial], "instance {serial}");
            assert_eq!(table.get_or_default(inst(serial)), &[serial]);
        }
        assert!(std::ptr::eq(first, &table[&inst(0)]), "the entry moved");
        assert!(table.get(&inst(count)).is_none());
        let mut visited = 0;
        table.for_each_mut(|instance, entry| {
            assert_eq!(entry, &[instance.serial]);
            visited += 1;
        });
        assert_eq!(visited, count);
    }

    /// A removed entry's slot is the next one handed out, and it holds a
    /// default entry, not the removed instance's.
    #[test]
    fn a_freed_slot_is_reused_empty() {
        let mut table = Paged::<Vec<u32>>::default();
        for serial in 0..PAGE as u32 {
            table.get_or_default(inst(serial)).push(serial);
        }
        let freed: *const Vec<u32> = &table[&inst(7)];
        table.remove(&inst(7));
        table.remove(&inst(7));
        assert!(table.get(&inst(7)).is_none());
        let reused = table.get_or_default(inst(PAGE as u32));
        assert!(reused.is_empty(), "{reused:?} left from the removed entry");
        assert!(std::ptr::eq(freed, reused), "the freed slot was not reused");
        assert_eq!(table.pages(), 1);
        table.get_or_default(inst(PAGE as u32 + 1));
        assert_eq!(table.pages(), 2);
    }
}
