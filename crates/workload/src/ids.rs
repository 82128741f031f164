//! Identifiers for the workload domain.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

macro_rules! index_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub usize);

        impl $name {
            /// The raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i)
            }
        }
    };
}

index_id!(
    /// An individual person with a grid account. Gateway *community* users do
    /// not get a `UserId`; they appear as gateway-attribute end users.
    UserId,
    "user"
);

index_id!(
    /// An allocated project (a PI's award) that users charge SUs against.
    ProjectId,
    "proj"
);

index_id!(
    /// One submitted job (or workflow task, or RC task).
    JobId,
    "job"
);

index_id!(
    /// A science gateway (community account).
    GatewayId,
    "gw"
);

index_id!(
    /// One workflow instance (a DAG of jobs).
    WorkflowId,
    "wf"
);

index_id!(
    /// One ensemble (parameter-sweep batch) instance.
    EnsembleId,
    "ens"
);

/// A hash map keyed by an index id ([`JobId`] and friends), hashed with
/// [`IdHasher`] instead of SipHash. For the per-job tables a simulation
/// touches on every event; iterate one only where order cannot matter.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A sparse array of `T` indexed by `usize`, kept in pages of `N` slots.
/// A page is allocated on its first write and found through an [`IdMap`]
/// directory keyed by `index / N`, so memory follows the indices in use
/// rather than the largest one (SWF traces may number jobs sparsely), and a
/// read is one probe into a small table. Slots never written read as
/// `T::default()`; [`PagedArray::take`] frees a page once every slot in it
/// reads that way again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedArray<T, const N: usize> {
    pages: IdMap<usize, Box<[T; N]>>,
}

impl<T, const N: usize> Default for PagedArray<T, N> {
    fn default() -> Self {
        PagedArray {
            pages: IdMap::default(),
        }
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PagedArray<T, N> {
    /// The value at `i`: `T::default()` where nothing was written.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.pages
            .get(&(i / N))
            .map_or_else(T::default, |page| page[i % N])
    }

    /// The slot at `i`, allocating its page on first use.
    #[inline]
    pub fn slot_mut(&mut self, i: usize) -> &mut T {
        let page = self
            .pages
            .entry(i / N)
            .or_insert_with(|| Box::new([T::default(); N]));
        &mut page[i % N]
    }

    /// Reset the slot at `i` to `T::default()` and return what it held,
    /// freeing its page if nothing else is left in it. Allocates nothing.
    pub fn take(&mut self, i: usize) -> T {
        let Some(page) = self.pages.get_mut(&(i / N)) else {
            return T::default();
        };
        let old = std::mem::take(&mut page[i % N]);
        if page.iter().all(|v| *v == T::default()) {
            self.pages.remove(&(i / N));
        }
        old
    }

    /// Pages allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Every allocated page with the index of its first slot, in index
    /// order.
    pub fn pages(&self) -> Vec<(usize, &[T; N])> {
        let mut pages: Vec<_> = self
            .pages
            .iter()
            .map(|(&p, page)| (p * N, &**page))
            .collect();
        pages.sort_unstable_by_key(|&(base, _)| base);
        pages
    }
}

/// Multiplicative (Fibonacci) hasher for index ids: one multiply per key.
/// Ids are dense and not attacker-chosen, so SipHash's flooding defence
/// buys nothing; the odd multiplier keeps consecutive ids in distinct
/// buckets and spreads them into the high bits the table's tag reads.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(b as usize);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(UserId(1).to_string(), "user1");
        assert_eq!(ProjectId(2).to_string(), "proj2");
        assert_eq!(JobId(3).to_string(), "job3");
        assert_eq!(GatewayId(4).to_string(), "gw4");
        assert_eq!(WorkflowId(5).to_string(), "wf5");
        assert_eq!(EnsembleId(6).to_string(), "ens6");
    }

    #[test]
    fn id_map_spreads_consecutive_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let low_bits: std::collections::HashSet<u64> =
            (0..1024).map(|i| build.hash_one(JobId(i)) & 1023).collect();
        assert_eq!(low_bits.len(), 1024, "1,024 consecutive ids, 1,024 buckets");
        let mut m: IdMap<JobId, usize> = IdMap::default();
        m.insert(JobId(7), 1);
        assert_eq!(m.remove(&JobId(7)), Some(1));
        assert!(m.is_empty());
    }

    #[test]
    fn conversion_and_ordering() {
        assert_eq!(JobId::from(9).index(), 9);
        assert!(JobId(1) < JobId(2));
    }
}
