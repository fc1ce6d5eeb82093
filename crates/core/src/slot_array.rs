//! Flat slot arrays backed by transparent huge pages where the kernel
//! offers them.
//!
//! A table far bigger than the cache (the paper's join workload, §1.1)
//! pays a DRAM miss per probe, and with 4 KiB pages also a page walk that
//! misses the cache: a 512 MiB slot array spans 131,072 pages, far more
//! than the TLB covers. [`SlotArray::new`] asks the kernel to back the
//! array with 2 MiB pages (`madvise(MADV_HUGEPAGE)`) before anything
//! touches the memory, so the first-touch fill already faults huge pages
//! in and a probe's translation usually hits the TLB.
//!
//! The advice covers the largest 2 MiB-aligned interior of an ordinary
//! `Vec` allocation, so the array is still a plain boxed slice with the
//! same size and `memory_bytes`; an array with no whole aligned huge page
//! inside it (below 2 MiB, or unluckily placed up to 4 MiB) is not
//! advised. It is a hint only: under the host's THP mode `never` it does
//! nothing, under `always` the pages are huge anyway, and a failed call
//! (`EINVAL` where THP is compiled out) is ignored. Other targets just
//! fill the array.

use std::ops::{Deref, DerefMut};

/// The huge-page size the advice is aligned to (x86-64 and the 4 KiB
/// base-page configurations of aarch64).
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// A boxed slice allocated through [`SlotArray::new`]; clones keep the
/// huge-page advice.
pub(crate) struct SlotArray<T>(Box<[T]>);

impl<T: Copy> SlotArray<T> {
    /// `cap` copies of `fill`.
    pub(crate) fn new(cap: usize, fill: T) -> Self {
        let mut v = advised_vec(cap);
        v.resize(cap, fill);
        SlotArray(v.into_boxed_slice())
    }
}

impl<T: Copy> Clone for SlotArray<T> {
    fn clone(&self) -> Self {
        let mut v = advised_vec(self.len());
        v.extend_from_slice(&self.0);
        SlotArray(v.into_boxed_slice())
    }
}

impl<T> Deref for SlotArray<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> DerefMut for SlotArray<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

/// An empty `Vec` with room for `cap` elements whose untouched
/// reservation has been advised.
fn advised_vec<T>(cap: usize) -> Vec<T> {
    let v = Vec::with_capacity(cap);
    if let Some((start, len)) = huge_page_interior(v.as_ptr() as usize, cap * size_of::<T>()) {
        advise_huge_pages(start, len);
    }
    v
}

/// The 2 MiB-aligned interior of `[addr, addr + bytes)`, if it holds at
/// least one whole huge page.
fn huge_page_interior(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE_BYTES)?;
    let end = (addr + bytes) / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES;
    (end > start).then(|| (start, end - start))
}

#[cfg(target_os = "linux")]
fn advise_huge_pages(start: usize, len: usize) {
    use std::ffi::{c_int, c_void};
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `[start, start + len)` is page-aligned and lies inside a
    // live allocation this thread exclusively owns. MADV_HUGEPAGE only
    // sets a flag on that range's mappings: it neither moves, frees nor
    // changes the contents of memory, so no reference anywhere is
    // invalidated. The result is deliberately ignored — the advice is a
    // hint, and the array is correct with or without it.
    let _ = unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_start: usize, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pair;

    const MIB: usize = 1 << 20;

    fn check_contents<T: Copy + PartialEq + std::fmt::Debug>(cap: usize, fill: T) {
        let a = SlotArray::new(cap, fill);
        assert_eq!(a.len(), cap);
        assert!(a.iter().all(|&x| x == fill), "cap {cap}: not every slot holds the fill");
        let b = a.clone();
        assert_eq!(&b[..], &a[..], "cap {cap}: clone differs");
    }

    #[test]
    fn holds_exactly_cap_copies_of_fill_around_huge_page_sizes() {
        for cap in [0, 1] {
            check_contents(cap, 7u8);
            check_contents(cap, Pair::empty());
        }
        for bytes in [2 * MIB, 4 * MIB] {
            for cap in [bytes - 1, bytes, bytes + 1] {
                check_contents(cap, 0xA5u8);
            }
            let pairs = bytes / size_of::<Pair>();
            for cap in [pairs - 1, pairs, pairs + 1] {
                check_contents(cap, Pair::empty());
            }
        }
        // An odd length whose end is not page-aligned either.
        check_contents(3 * MIB / 8 + 4099, u64::MAX);
    }

    #[test]
    fn interior_rounds_inward_to_whole_huge_pages() {
        let h = HUGE_PAGE_BYTES;
        assert_eq!(huge_page_interior(0, 0), None);
        assert_eq!(huge_page_interior(h, h - 1), None);
        assert_eq!(huge_page_interior(h, h), Some((h, h)));
        assert_eq!(huge_page_interior(h + 16, 2 * h - 17), None);
        assert_eq!(huge_page_interior(h + 16, 2 * h), Some((2 * h, h)));
        assert_eq!(huge_page_interior(h + 16, 3 * h), Some((2 * h, 2 * h)));
        assert_eq!(huge_page_interior(16, 8 * h + 7), Some((h, 7 * h)));
        assert_eq!(huge_page_interior(usize::MAX - 8, 4), None);
    }

    /// The mapping behind an 8 MiB array's aligned interior carries the
    /// `hg` (MADV_HUGEPAGE) flag. Whether the kernel then backs it with
    /// huge pages depends on the host's THP mode, so that is not asserted.
    #[cfg(target_os = "linux")]
    #[test]
    fn large_arrays_are_advised_for_huge_pages() {
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            return;
        }
        let a = SlotArray::new(8 * MIB, 0u8);
        let (start, _) = huge_page_interior(a.as_ptr() as usize, a.len())
            .expect("an 8 MiB array holds a whole aligned huge page");
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("readable smaps");
        let mut covering = false;
        for line in smaps.lines() {
            if let Some((lo, hi)) = line.split_whitespace().next().and_then(|r| r.split_once('-')) {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    covering = (lo..hi).contains(&start);
                    continue;
                }
            }
            if covering {
                if let Some(flags) = line.strip_prefix("VmFlags:") {
                    assert!(
                        flags.split_whitespace().any(|f| f == "hg"),
                        "mapping of {start:#x} lacks the hg flag: {flags}"
                    );
                    return;
                }
            }
        }
        panic!("no smaps entry with VmFlags covers {start:#x}");
    }
}
