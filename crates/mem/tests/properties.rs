//! Property-based tests for the memory-hierarchy data structures.

use proptest::prelude::*;

use smt_mem::{MemoryHierarchy, MshrFile, SetAssocCache, Tlb, WriteBuffer};
use smt_types::config::{CacheConfig, TlbConfig};
use smt_types::{SmtConfig, ThreadId};

fn small_cache_config() -> impl Strategy<Value = CacheConfig> {
    (1u32..5, 0u32..4).prop_map(|(assoc_pow, sets_pow)| {
        let associativity = 1 << assoc_pow;
        let sets = 1u64 << (sets_pow + 2);
        CacheConfig {
            size_bytes: sets * associativity as u64 * 64,
            associativity,
            line_bytes: 64,
            latency: 2,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After filling a line it is always present until at least `associativity`
    /// distinct conflicting lines have been filled into the same set.
    #[test]
    fn cache_fill_then_probe_holds(config in small_cache_config(), addr in any::<u64>()) {
        let mut cache = SetAssocCache::new(&config);
        cache.fill(addr);
        prop_assert!(cache.probe(addr));
        prop_assert!(cache.access(addr));
    }

    /// Hits plus misses equals the number of lookups, and the hit rate is in [0,1].
    #[test]
    fn cache_counter_consistency(
        config in small_cache_config(),
        addrs in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut cache = SetAssocCache::new(&config);
        for &a in &addrs {
            if !cache.access(a) {
                cache.fill(a);
            }
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!(cache.hit_rate() >= 0.0 && cache.hit_rate() <= 1.0);
    }

    /// A TLB with N entries retains the N most recently used distinct pages.
    #[test]
    fn tlb_keeps_recent_pages(entries in 1u32..32, pages in prop::collection::vec(0u64..64, 1..200)) {
        let mut tlb = Tlb::new(&TlbConfig { entries, page_bytes: 8192, miss_penalty: 350 });
        for &p in &pages {
            tlb.access(p * 8192);
        }
        // The most recently accessed page is always resident.
        if let Some(&last) = pages.last() {
            prop_assert!(tlb.probe(last * 8192));
        }
    }

    /// The MSHR file never tracks more than its capacity of outstanding misses per
    /// thread, and merged requests never finish before `now`.
    #[test]
    fn mshr_capacity_respected(
        capacity in 1usize..16,
        lines in prop::collection::vec(0u64..32, 1..100),
    ) {
        let mut mshrs = MshrFile::new(1, capacity);
        for (i, &line) in lines.iter().enumerate() {
            let now = i as u64 * 3;
            let _ = mshrs.request(0, line, now, now + 350);
            prop_assert!(mshrs.outstanding_count(0, now) <= capacity);
        }
    }

    /// Loads of the same address become faster (or equal) on the second access and
    /// a completed access never reports zero latency.
    #[test]
    fn hierarchy_reaccess_is_never_slower(addr in 0u64..0x10_000_000u64) {
        let cfg = SmtConfig::baseline(1);
        let mut mem = MemoryHierarchy::new(&cfg);
        let t = ThreadId::new(0);
        let first = mem.load_access(t, 0x40, addr, 0);
        let second = mem.load_access(t, 0x40, addr, first.completion_cycle() + 1);
        prop_assert!(first.latency >= 1);
        prop_assert!(second.latency >= 1);
        prop_assert!(second.latency <= first.latency);
        prop_assert!(!second.long_latency);
    }

    /// `next_pending_drain` reports the earliest completion cycle strictly
    /// after `now` among every store the buffer ever accepted — drained
    /// entries that linger until the next push never count — and the query
    /// itself changes nothing the buffer later reports.
    #[test]
    fn write_buffer_next_pending_drain_ignores_drained(
        capacity in 1usize..6,
        latency in 1u64..8,
        steps in prop::collection::vec((0u64..6, any::<bool>()), 1..120),
    ) {
        let mut wb = WriteBuffer::new(capacity, latency);
        let mut accepted: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for (advance, push) in steps {
            now += advance;
            let expect = accepted.iter().copied().filter(|&d| d > now).min();
            prop_assert_eq!(wb.next_pending_drain(now), expect);
            if push {
                let before = wb.total_stores();
                if wb.try_push(now) {
                    let done = accepted.last().copied().unwrap_or(now).max(now) + latency;
                    accepted.push(done);
                    prop_assert_eq!(wb.total_stores(), before + 1);
                }
            }
            let pending = accepted.iter().filter(|&&d| d > now).count();
            prop_assert_eq!(wb.occupancy(now), pending);
        }
    }
}
